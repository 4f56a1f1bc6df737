package orb

import (
	"net"
	"strings"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
	"mead/internal/interceptor"
)

// fragmentFrames renders msg, a complete GIOP message, as the GIOP 1.1
// fragment train a fragmenting peer sends: bodies of at most n bytes, the
// first frame of the message's own type, the rest Fragment messages, every
// frame but the last flagged more-fragments. msg comes from this package's
// own encoders, so a header that does not parse is a bug in the test.
func fragmentFrames(msg []byte, n int) []byte {
	h, err := giop.ParseHeader(msg)
	if err != nil {
		panic(err)
	}
	body := msg[giop.HeaderLen:]
	var wire []byte
	for off := 0; off < len(body); off += n {
		end := min(off+n, len(body))
		fh := giop.Header{Major: 1, Minor: 1, Order: h.Order, Type: h.Type,
			Size: uint32(end - off), Fragmented: end < len(body)}
		if off > 0 {
			fh.Type = giop.MsgFragment
		}
		wire = append(wire, giop.EncodeHeader(fh)...)
		wire = append(wire, body[off:end]...)
	}
	return wire
}

// echoRequest renders a Request for the echo servant's "echo" operation.
func echoRequest(order cdr.ByteOrder, id uint32, responseExpected bool, s string) []byte {
	return giop.EncodeRequest(order, giop.RequestHeader{
		RequestID: id, ResponseExpected: responseExpected, ObjectKey: clockKey, Operation: "echo",
	}, func(e *cdr.Encoder) { e.WriteString(s) })
}

// rawConn dials s for a test that writes hand-built frames and reads back
// what the server answers.
func rawConn(t *testing.T, s *ServerORB) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn
}

func send(t *testing.T, conn net.Conn, wire []byte) {
	t.Helper()
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
}

// readEchoReply reads the next message off conn, which must be the
// NO_EXCEPTION Reply to request id, and returns the string it carries.
func readEchoReply(t *testing.T, conn net.Conn, id uint32) string {
	t.Helper()
	h, body, err := giop.ReadMessage(conn)
	if err != nil {
		t.Fatalf("no reply to request %d: %v", id, err)
	}
	if h.Type != giop.MsgReply {
		t.Fatalf("answer to request %d is a %v, want Reply", id, h.Type)
	}
	rh, d, err := giop.DecodeReply(h.Order, body)
	if err != nil || rh.RequestID != id || rh.Status != giop.ReplyNoException {
		t.Fatalf("reply = %+v, %v; want NO_EXCEPTION to request %d", rh, err, id)
	}
	got, err := d.ReadString()
	if err != nil {
		t.Fatalf("reply to request %d: %v", id, err)
	}
	return got
}

// locate sends conn a LocateRequest for key and returns the status of the
// LocateReply that answers it.
func locate(t *testing.T, conn net.Conn, id uint32, key []byte) giop.LocateStatus {
	t.Helper()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULong(id)
	e.WriteOctets(key)
	send(t, conn, giop.EncodeMessage(cdr.BigEndian, giop.MsgLocateRequest, e.Bytes()))
	h, body, err := giop.ReadMessage(conn)
	if err != nil || h.Type != giop.MsgLocateReply {
		t.Fatalf("answer to LocateRequest %d = %v, %v; want LocateReply", id, h.Type, err)
	}
	d := cdr.NewDecoder(body, h.Order)
	got, _ := d.ReadULong()
	status, err := d.ReadULong()
	if err != nil || got != id {
		t.Fatalf("LocateReply answers %d (%v), want %d", got, err, id)
	}
	return giop.LocateStatus(status)
}

// The ORB never sends a LocateRequest, but a peer may: the server answers
// from its object map without running a servant.
func TestLocateObjectHere(t *testing.T) {
	s, _ := startServer(t)
	if st := locate(t, rawConn(t, s), 1, clockKey); st != giop.LocateObjectHere {
		t.Fatalf("registered key: %v, want OBJECT_HERE", st)
	}
}

func TestLocateUnknownObject(t *testing.T) {
	s, _ := startServer(t)
	if st := locate(t, rawConn(t, s), 2, giop.MakeObjectKey("timeofday", "missing")); st != giop.LocateUnknownObject {
		t.Fatalf("unregistered key: %v, want UNKNOWN_OBJECT", st)
	}
}

// TestReceiveSide covers the GIOP the ORB accepts but never sends. It sends
// only big-endian, unfragmented two-way Requests and their Replies, but a
// peer ORB may send any of GIOP 1.0/1.1: each case hand-builds such frames,
// written raw to a real ServerORB or read by a real ObjectRef off a stub
// server.
func TestReceiveSide(t *testing.T) {
	payload := strings.Repeat("fragmentation!", 200) // ~2.8 KB: 22 fragments of 128 bytes
	type receiveCase struct {
		name string
		run  func(t *testing.T)
	}
	cases := []receiveCase{
		{"fragmented request", func(t *testing.T) {
			s, _ := startServer(t)
			conn := rawConn(t, s)
			send(t, conn, fragmentFrames(echoRequest(cdr.BigEndian, 1, true, payload), 128))
			if got := readEchoReply(t, conn, 1); got != payload {
				t.Fatalf("echo of a fragmented request: %d bytes back, want %d", len(got), len(payload))
			}
		}},
		{"oneway request", func(t *testing.T) {
			s, servant := startServer(t)
			conn := rawConn(t, s)
			send(t, conn, echoRequest(cdr.BigEndian, 1, false, "oneway"))
			select {
			case <-servant.called:
			case <-time.After(5 * time.Second):
				t.Fatal("the servant never ran the oneway request")
			}
			// Had the oneway been answered, that reply would be on the stream
			// ahead of this one.
			send(t, conn, echoRequest(cdr.BigEndian, 2, true, "two-way"))
			if got := readEchoReply(t, conn, 2); got != "two-way" {
				t.Fatalf("echo = %q", got)
			}
		}},
		{"little-endian request", func(t *testing.T) {
			s, _ := startServer(t)
			conn := rawConn(t, s)
			send(t, conn, echoRequest(cdr.LittleEndian, 7, true, "le"))
			if got := readEchoReply(t, conn, 7); got != "le" {
				t.Fatalf("echo = %q", got)
			}
		}},
	}

	// A fragmented Reply, on each way a reference holds its connection and
	// through a pass-through interceptor, which must forward the fragment
	// train intact.
	passThrough := transport{"interceptor", []ClientOption{WithClientConnWrapper(func(c net.Conn) net.Conn {
		return interceptor.New(c, interceptor.Hooks{})
	})}}
	for _, tr := range append(transports[:len(transports):len(transports)], passThrough) {
		cases = append(cases, receiveCase{"fragmented reply/" + tr.name, func(t *testing.T) {
			ior := stubServer(t, func(_ giop.IOR, conn net.Conn) {
				for {
					hdr, ok := readRequest(conn)
					if !ok {
						return
					}
					reply := giop.EncodeReply(cdr.BigEndian,
						giop.ReplyHeader{RequestID: hdr.RequestID, Status: giop.ReplyNoException},
						func(e *cdr.Encoder) { e.WriteString(payload) })
					if _, err := conn.Write(fragmentFrames(reply, 128)); err != nil {
						return
					}
				}
			})
			c := NewClient(tr.opts...)
			o := c.Object(ior)
			t.Cleanup(func() { _ = o.Close(); _ = c.Close() })
			// The second call shows the stream is still in step after the
			// first fragment train.
			for i := 0; i < 2; i++ {
				if got, err := invokeEcho(o, "ignored"); err != nil || got != payload {
					t.Fatalf("call %d: %d bytes back, %v; want %d", i, len(got), err, len(payload))
				}
			}
		}})
	}

	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
