package ftmgr

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
)

func TestNewClientManagerValidation(t *testing.T) {
	if _, err := NewClientManager(ClientConfig{Scheme: ReactiveNoCache}); err == nil {
		t.Fatal("reactive scheme accepted for client interception")
	}
	if _, err := NewClientManager(ClientConfig{Scheme: NeedsAddressing}); err == nil {
		t.Fatal("NEEDS_ADDRESSING without member accepted")
	}
	cm, err := NewClientManager(ClientConfig{Scheme: MeadMessage})
	if err != nil {
		t.Fatal(err)
	}
	if cm.cfg.QueryTimeout != DefaultQueryTimeout {
		t.Fatalf("query timeout default = %v", cm.cfg.QueryTimeout)
	}
}

// fakeServer accepts connections and serves scripted frame bytes in
// response to each request read. A nil script result closes the connection
// (abrupt server failure). Close tears down the listener and every accepted
// connection, as a process crash would.
type fakeServer struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (fs *fakeServer) Addr() string { return fs.ln.Addr().String() }

func (fs *fakeServer) Close() error {
	_ = fs.ln.Close()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, c := range fs.conns {
		_ = c.Close()
	}
	fs.conns = nil
	return nil
}

func fakeReplyServer(t *testing.T, script func(reqNum int, hdr giop.RequestHeader) [][]byte) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln}
	t.Cleanup(func() { _ = fs.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fs.mu.Lock()
			fs.conns = append(fs.conns, conn)
			fs.mu.Unlock()
			go func(c net.Conn) {
				defer c.Close()
				for reqNum := 0; ; reqNum++ {
					h, body, err := giop.ReadMessage(c)
					if err != nil {
						return
					}
					hdr, _, err := giop.DecodeRequest(h.Order, body)
					if err != nil {
						return
					}
					frames := script(reqNum, hdr)
					if frames == nil {
						return // scripted abrupt failure
					}
					for _, frame := range frames {
						if _, err := c.Write(frame); err != nil {
							return
						}
					}
				}
			}(conn)
		}
	}()
	return fs
}

func okReply(id uint32) []byte {
	return giop.EncodeReply(cdr.BigEndian,
		giop.ReplyHeader{RequestID: id, Status: giop.ReplyNoException},
		func(e *cdr.Encoder) { e.WriteLongLong(12345) })
}

// roundTrip writes one request through conn and reads the reply, mimicking
// the ORB's use of the intercepted connection.
func roundTrip(conn net.Conn, id uint32) (giop.ReplyHeader, error) {
	req := giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
		RequestID:        id,
		ResponseExpected: true,
		ObjectKey:        giop.MakeObjectKey("timeofday", "clock"),
		Operation:        "time_of_day",
	}, nil)
	if _, err := conn.Write(req); err != nil {
		return giop.ReplyHeader{}, fmt.Errorf("write request %d: %w", id, err)
	}
	h, body, err := giop.ReadMessage(conn)
	if err != nil {
		return giop.ReplyHeader{}, fmt.Errorf("read reply %d: %w", id, err)
	}
	rh, _, err := giop.DecodeReply(h.Order, body)
	return rh, err
}

func doInvoke(t *testing.T, conn net.Conn, id uint32) giop.ReplyHeader {
	t.Helper()
	rh, err := roundTrip(conn, id)
	if err != nil {
		t.Fatal(err)
	}
	return rh
}

func TestMeadClientRedirects(t *testing.T) {
	// Backup server: plain replies.
	backup := fakeReplyServer(t, func(_ int, hdr giop.RequestHeader) [][]byte {
		return [][]byte{okReply(hdr.RequestID)}
	})
	backupIOR := giop.NewIOR("IDL:t:1.0", "127.0.0.1", 0, giop.MakeObjectKey("timeofday", "clock"))

	// Failing primary: piggybacks a MEAD fail-over frame pointing at the
	// backup onto its (final) reply.
	primary := fakeReplyServer(t, func(_ int, hdr giop.RequestHeader) [][]byte {
		return [][]byte{
			giop.EncodeMeadFailover(backup.Addr(), backupIOR),
			okReply(hdr.RequestID),
		}
	})

	cm, err := NewClientManager(ClientConfig{Scheme: MeadMessage})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", primary.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := cm.WrapClientConn(raw)
	defer conn.Close()

	// First invocation: served by the primary, MEAD frame filtered out,
	// connection silently redirected.
	if rh := doInvoke(t, conn, 1); rh.Status != giop.ReplyNoException || rh.RequestID != 1 {
		t.Fatalf("reply 1 = %+v", rh)
	}
	// Second invocation: must reach the backup.
	if rh := doInvoke(t, conn, 2); rh.Status != giop.ReplyNoException || rh.RequestID != 2 {
		t.Fatalf("reply 2 = %+v", rh)
	}
	if cm.Failovers() != 1 {
		t.Fatalf("failovers = %d", cm.Failovers())
	}
}

func TestMeadClientIgnoresUnreachableTarget(t *testing.T) {
	// If the fail-over target is dead, the notice is dropped and the
	// current replica keeps serving.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	_ = deadLn.Close()
	deadIOR := giop.NewIOR("IDL:t:1.0", "127.0.0.1", 0, giop.MakeObjectKey("t", "c"))

	primary := fakeReplyServer(t, func(_ int, hdr giop.RequestHeader) [][]byte {
		return [][]byte{
			giop.EncodeMeadFailover(deadAddr, deadIOR),
			okReply(hdr.RequestID),
		}
	})
	cm, err := NewClientManager(ClientConfig{Scheme: MeadMessage, DialTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", primary.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := cm.WrapClientConn(raw)
	defer conn.Close()
	for id := uint32(1); id <= 3; id++ {
		if rh := doInvoke(t, conn, id); rh.Status != giop.ReplyNoException {
			t.Fatalf("reply %d = %+v", id, rh)
		}
	}
	if cm.Failovers() != 0 {
		t.Fatalf("failovers = %d, want 0", cm.Failovers())
	}
}

func TestNeedsAddressingRecoversFromEOF(t *testing.T) {
	h := startHub(t)
	mon := budgetAt(t, 0)

	// Live backup replica: answers primary queries and serves requests.
	backup := fakeReplyServer(t, func(_ int, hdr giop.RequestHeader) [][]byte {
		return [][]byte{okReply(hdr.RequestID)}
	})
	n2 := newManagerNode(t, h, "r2", NeedsAddressing, mon)
	_ = n2.m.AnnounceSelf(backup.Addr(), nil)
	waitFor(t, "r2 in view", func() bool { return len(n2.m.View().Members) >= 1 })

	// Failing primary: serves one request then drops the connection.
	primary := fakeReplyServer(t, func(reqNum int, hdr giop.RequestHeader) [][]byte {
		if reqNum == 0 {
			return [][]byte{okReply(hdr.RequestID)}
		}
		return nil // no reply; connection will be closed via panic-free path
	})

	clientMember := dialMember(t, h, "client-na")
	cm, err := NewClientManager(ClientConfig{
		Scheme:       NeedsAddressing,
		Member:       clientMember,
		Group:        testGroup,
		QueryTimeout: 500 * time.Millisecond, // generous for CI timing
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", primary.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := cm.WrapClientConn(raw)
	defer conn.Close()

	if rh := doInvoke(t, conn, 1); rh.Status != giop.ReplyNoException {
		t.Fatalf("reply 1 = %+v", rh)
	}

	// Kill the primary underneath the client: the next read hits EOF.
	primaryUnder := primary
	_ = primaryUnder.Close()
	// Write request 2 (may succeed into the dead socket's buffer), then
	// read: the interceptor must fabricate NEEDS_ADDRESSING_MODE.
	req := giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
		RequestID: 2, ResponseExpected: true,
		ObjectKey: giop.MakeObjectKey("timeofday", "clock"), Operation: "time_of_day",
	}, nil)
	if _, err := conn.Write(req); err != nil {
		t.Skipf("request write failed before EOF detection: %v", err)
	}
	hh, body, err := giop.ReadMessage(conn)
	if err != nil {
		t.Fatalf("read after primary death: %v", err)
	}
	rh, _, err := giop.DecodeReply(hh.Order, body)
	if err != nil {
		t.Fatal(err)
	}
	if rh.Status != giop.ReplyNeedsAddressingMode || rh.RequestID != 2 {
		t.Fatalf("fabricated reply = %+v", rh)
	}
	// The ORB would now retransmit request 2; it must reach the backup.
	if rh := doInvoke(t, conn, 2); rh.Status != giop.ReplyNoException || rh.RequestID != 2 {
		t.Fatalf("retransmitted reply = %+v", rh)
	}
	if cm.Failovers() != 1 {
		t.Fatalf("failovers = %d", cm.Failovers())
	}
}

func TestNeedsAddressingTimeoutPropagatesEOF(t *testing.T) {
	h := startHub(t)
	// No replicas in the group: the query must time out and the EOF must
	// reach the caller (COMM_FAILURE at the ORB).
	clientMember := dialMember(t, h, "client-to")
	cm, err := NewClientManager(ClientConfig{
		Scheme:       NeedsAddressing,
		Member:       clientMember,
		Group:        testGroup,
		QueryTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	primary := fakeReplyServer(t, func(_ int, hdr giop.RequestHeader) [][]byte {
		return [][]byte{okReply(hdr.RequestID)}
	})
	raw, err := net.Dial("tcp", primary.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := cm.WrapClientConn(raw)
	defer conn.Close()
	if rh := doInvoke(t, conn, 1); rh.Status != giop.ReplyNoException {
		t.Fatalf("reply 1 = %+v", rh)
	}
	// Kill the server; the recovery query has nobody to answer it.
	for _, c := range []interface{ Close() error }{primary} {
		_ = c.Close()
	}
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("read succeeded though no primary exists")
	}
	if cm.Failovers() != 0 {
		t.Fatalf("failovers = %d", cm.Failovers())
	}
}
