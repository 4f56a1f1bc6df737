package orb

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"mead/internal/cdr"
	"mead/internal/giop"
)

// recordingConn is a transport that records what reaches it. It is not a
// *net.TCPConn, so net.Buffers falls back from writev to one Write per
// segment; the tests therefore count flushes by when the writes happen.
type recordingConn struct {
	net.Conn // nil: only Write is ever called
	mu       sync.Mutex
	writes   int
	stream   bytes.Buffer
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	return c.stream.Write(p)
}

func (c *recordingConn) writeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// TestWriterFlushesConcurrentFramesTogether pins down the last-writer-out
// protocol deterministically: while an earlier writer still holds the flush
// open, N concurrent writers only queue; the writer that drops pending to
// zero hands the whole queue to ONE vectored flush. Every frame arrives as
// a standalone, well-formed GIOP message, and every pooled encoder goes back
// to its pool exactly once.
func TestWriterFlushesConcurrentFramesTogether(t *testing.T) {
	const n = 8
	rc := &recordingConn{}
	w := &connWriter{conn: rc}
	req := func(id uint32) *cdr.Encoder {
		return giop.EncodeRequestPooled(cdr.BigEndian, giop.RequestHeader{
			RequestID: id, ResponseExpected: true, ObjectKey: []byte("k"), Operation: "echo",
		}, nil)
	}

	w.pending.Add(1) // hold the flush open, as a mid-write concurrent caller would
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			if err := w.writeEncoder(req(id), 0); err != nil {
				t.Error(err)
			}
		}(uint32(i))
	}
	wg.Wait()
	if got := rc.writeCount(); got != 0 {
		t.Fatalf("%d segments reached the transport while the flush was held open", got)
	}
	w.pending.Add(-1)
	// The next writer leaves last: its single flush carries all n+1 frames
	// (one writev on a TCP connection).
	if err := w.writeEncoder(req(n+1), 0); err != nil {
		t.Fatal(err)
	}
	if got := rc.writeCount(); got != n+1 {
		t.Fatalf("last writer's flush carried %d segments, want %d", got, n+1)
	}
	if len(w.owned) != 0 || len(w.bufs) != 0 {
		t.Fatalf("writer still holds %d encoders / %d segments after the flush", len(w.owned), len(w.bufs))
	}

	// A lone message flushes at once, on its own.
	if err := w.writeEncoder(req(n+2), 0); err != nil {
		t.Fatal(err)
	}
	if got := rc.writeCount(); got != n+2 {
		t.Fatalf("lone frame: %d segments on the transport, want %d", got, n+2)
	}

	seen := map[uint32]bool{}
	for i := 0; i < n+2; i++ {
		h, mb, err := giop.ReadMessagePooled(&rc.stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if h.Type != giop.MsgRequest || h.Fragmented {
			t.Fatalf("frame %d: type %v fragmented=%v, want a standalone Request", i, h.Type, h.Fragmented)
		}
		hdr, d, err := giop.DecodeRequest(h.Order, mb.Bytes())
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if seen[hdr.RequestID] || hdr.RequestID < 1 || hdr.RequestID > n+2 || hdr.Operation != "echo" {
			t.Fatalf("frame %d: unexpected request %+v", i, hdr)
		}
		seen[hdr.RequestID] = true
		d.Release()
		mb.Release()
	}
	if rc.stream.Len() != 0 {
		t.Fatalf("%d trailing bytes after the last frame", rc.stream.Len())
	}

	// An encoder released twice would sit in its pool twice and come out
	// twice.
	drawn := map[*cdr.Encoder]bool{}
	for i := 0; i < 2*(n+2); i++ {
		e := cdr.GetEncoder(cdr.BigEndian)
		if drawn[e] {
			t.Fatal("an encoder was released to the pool more than once")
		}
		drawn[e] = true
	}
	for e := range drawn {
		e.Release()
	}
}
