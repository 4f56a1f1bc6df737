package orb

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mead/internal/cdr"
	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/giop"
	"mead/internal/resource"
)

// countingWire counts the transport writes — the write system calls — of
// every connection it wraps. It goes beneath the interceptor.
type countingWire struct{ writes atomic.Int64 }

type countedConn struct {
	net.Conn
	wire *countingWire
}

func (w *countingWire) wrap(c net.Conn) net.Conn { return &countedConn{Conn: c, wire: w} }

func (c *countedConn) Write(p []byte) (int, error) {
	c.wire.writes.Add(1)
	return c.Conn.Write(p)
}

// replicatedPathWrapper returns the server-side conn wrapper of a real
// fault-tolerance manager (LOCATION_FORWARD scheme, far below its
// thresholds): the interceptor and hooks every replica serves behind.
func replicatedPathWrapper(t *testing.T) ConnWrapper {
	t.Helper()
	hub := gcs.NewHub()
	if err := hub.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	member, err := gcs.Dial(hub.Addr(), "r1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = member.Close() })
	budget, err := resource.NewBudget("memory", 1000)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := ftmgr.NewManager(ftmgr.Config{
		ReplicaName: "r1", Group: "mead.test", Scheme: ftmgr.LocationForward,
		Monitor: budget, Member: member,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mgr.WrapServerConn
}

// TestBurstCrossesReplicatedPathInOneWrite is
// TestWriterFlushesConcurrentFramesTogether with a replica's interceptor
// between the writer and the transport: eight concurrent replies held behind
// one flush must still reach the transport in ONE write. Without the
// interceptor's vectored entry point net.Buffers degrades to a write per
// frame here.
func TestBurstCrossesReplicatedPathInOneWrite(t *testing.T) {
	const n = 8
	rc := &recordingConn{}
	w := &connWriter{conn: replicatedPathWrapper(t)(rc)}
	reply := func(id uint32) *cdr.Encoder {
		return giop.EncodeReplyPooled(cdr.BigEndian, giop.ReplyHeader{RequestID: id, Status: giop.ReplyNoException}, nil)
	}

	w.pending.Add(1) // hold the flush open, as a mid-write concurrent caller would
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			if err := w.writeEncoder(reply(id)); err != nil {
				t.Error(err)
			}
		}(uint32(i))
	}
	wg.Wait()
	w.pending.Add(-1)
	if got := rc.writeCount(); got != 0 {
		t.Fatalf("%d writes reached the transport while the flush was held open", got)
	}
	if err := w.writeEncoder(reply(n + 1)); err != nil {
		t.Fatal(err)
	}
	if got := rc.writeCount(); got != 1 {
		t.Fatalf("burst of %d replies reached the transport in %d writes, want 1", n+1, got)
	}
	seen := map[uint32]bool{}
	for i := 0; i < n+1; i++ {
		h, body, err := giop.ReadMessage(&rc.stream)
		if err != nil || h.Type != giop.MsgReply {
			t.Fatalf("frame %d: %+v, %v", i, h, err)
		}
		id, err := giop.ReplyIDOf(h.Order, body)
		if err != nil || seen[id] || id < 1 || id > n+1 {
			t.Fatalf("frame %d: reply id %d, %v", i, id, err)
		}
		seen[id] = true
	}
	if rc.stream.Len() != 0 {
		t.Fatalf("%d trailing bytes after the last frame", rc.stream.Len())
	}
}

// TestPooledCallersShareServerWrites runs two callers on one pooled
// reference against a server behind the replicated path and counts the
// server's transport writes beneath the interceptor: the two replies of each
// round leave together, so the server makes about half a write per
// invocation (it made one per invocation when the interceptor wrote frame by
// frame). One P, as in the repository's benchmark, makes the callers'
// lock-step — and with it the count — repeat.
func TestPooledCallersShareServerWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wire := &countingWire{}
	s, _ := startServer(t, WithServerWireWrapper(wire.wrap), WithServerConnWrapper(replicatedPathWrapper(t)))
	_, o := pooledObjectFor(t, s)
	if _, err := invokeTime(o); err != nil { // dial outside the count
		t.Fatal(err)
	}

	const callers, each = 2, 1000
	before := wire.writes.Load()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < each; n++ {
				if _, err := invokeTime(o); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	perInvoke := float64(wire.writes.Load()-before) / (callers * each)
	t.Logf("%.3f server transport writes per invocation", perInvoke)
	if perInvoke > 0.6 {
		t.Fatalf("%.3f server transport writes per invocation, want <= 0.6", perInvoke)
	}
}
