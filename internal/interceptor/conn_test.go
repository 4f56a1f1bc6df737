package interceptor

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
)

func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	<-done
	if cerr != nil || err != nil {
		t.Fatalf("pair: %v %v", cerr, err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server
}

func requestFrame(id uint32, op string) []byte {
	return giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
		RequestID:        id,
		ResponseExpected: true,
		ObjectKey:        giop.MakeObjectKey("s", "o"),
		Operation:        op,
	}, nil)
}

func replyFrame(id uint32) []byte {
	return giop.EncodeReply(cdr.BigEndian,
		giop.ReplyHeader{RequestID: id, Status: giop.ReplyNoException}, nil)
}

func TestPassThrough(t *testing.T) {
	cEnd, sEnd := tcpPair(t)
	ic := New(cEnd, Hooks{})
	msg := requestFrame(1, "ping")

	go func() {
		_, _ = ic.Write(msg)
	}()
	h, body, err := giop.ReadMessage(sEnd)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != giop.MsgRequest {
		t.Fatalf("type = %v", h.Type)
	}
	hdr, _, err := giop.DecodeRequest(h.Order, body)
	if err != nil || hdr.Operation != "ping" {
		t.Fatalf("request = %+v, %v", hdr, err)
	}

	// And the reverse direction through Read.
	reply := replyFrame(1)
	go func() { _, _ = sEnd.Write(reply) }()
	got := make([]byte, len(reply))
	if _, err := io.ReadFull(ic, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reply) {
		t.Fatal("reply bytes differ through interceptor")
	}
}

func TestPartialWritesReassembled(t *testing.T) {
	cEnd, sEnd := tcpPair(t)
	ic := New(cEnd, Hooks{})
	msg := requestFrame(7, "chunked")

	go func() {
		for i := 0; i < len(msg); i += 5 {
			end := i + 5
			if end > len(msg) {
				end = len(msg)
			}
			if _, err := ic.Write(msg[i:end]); err != nil {
				return
			}
		}
	}()
	h, body, err := giop.ReadMessage(sEnd)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, err := giop.DecodeRequest(h.Order, body)
	if err != nil || hdr.RequestID != 7 {
		t.Fatalf("request = %+v, %v", hdr, err)
	}
}

func TestWriteHookReplacesFrame(t *testing.T) {
	cEnd, sEnd := tcpPair(t)
	replacement := replyFrame(99)
	ic := New(cEnd, Hooks{
		OnWriteFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
			if f.Kind == giop.FrameGIOP && f.Header.Type == giop.MsgRequest {
				return replacement, nil
			}
			return f.Raw, nil
		},
	})
	go func() { _, _ = ic.Write(requestFrame(1, "x")) }()
	h, body, err := giop.ReadMessage(sEnd)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != giop.MsgReply {
		t.Fatalf("wire frame type = %v, want substituted Reply", h.Type)
	}
	rh, _, err := giop.DecodeReply(h.Order, body)
	if err != nil || rh.RequestID != 99 {
		t.Fatalf("substituted reply = %+v, %v", rh, err)
	}
}

func TestWriteHookPiggybacksFrames(t *testing.T) {
	cEnd, sEnd := tcpPair(t)
	mead := giop.EncodeMead(giop.MeadFailover, []byte("to"))
	ic := New(cEnd, Hooks{
		OnWriteFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
			out := make([]byte, 0, len(mead)+len(f.Raw))
			out = append(out, mead...)
			out = append(out, f.Raw...)
			return out, nil
		},
	})
	reply := replyFrame(4)
	go func() { _, _ = ic.Write(reply) }()

	f1, err := readFrame(sEnd)
	if err != nil || f1.Kind != giop.FrameMEAD {
		t.Fatalf("first wire frame = %+v, %v", f1, err)
	}
	f2, err := readFrame(sEnd)
	if err != nil || f2.Kind != giop.FrameGIOP {
		t.Fatalf("second wire frame = %+v, %v", f2, err)
	}
	if !bytes.Equal(f2.Raw, reply) {
		t.Fatal("piggybacked reply corrupted")
	}
}

func TestReadHookConsumesMeadFrames(t *testing.T) {
	cEnd, sEnd := tcpPair(t)
	var meadSeen int
	ic := New(cEnd, Hooks{
		OnReadFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
			if f.Kind == giop.FrameMEAD {
				meadSeen++
				return nil, nil // consume: the ORB never sees it
			}
			return f.Raw, nil
		},
	})
	reply := replyFrame(2)
	go func() {
		_, _ = sEnd.Write(giop.EncodeMead(giop.MeadFailover, []byte("addr")))
		_, _ = sEnd.Write(reply)
	}()
	h, body, err := giop.ReadMessage(ic)
	if err != nil {
		t.Fatal(err)
	}
	rh, _, err := giop.DecodeReply(h.Order, body)
	if err != nil || rh.RequestID != 2 {
		t.Fatalf("reply = %+v, %v", rh, err)
	}
	if meadSeen != 1 {
		t.Fatalf("mead frames seen = %d", meadSeen)
	}
}

func TestOnReadEOFFabricatesReply(t *testing.T) {
	cEnd, sEnd := tcpPair(t)
	fabricated := giop.EncodeReply(cdr.BigEndian,
		giop.ReplyHeader{RequestID: 5, Status: giop.ReplyNeedsAddressingMode}, nil)
	ic := New(cEnd, Hooks{
		OnReadEOF: func(c *Conn, err error) ([]byte, bool) {
			return fabricated, true
		},
	})
	_ = sEnd.Close() // abrupt server failure
	h, body, err := giop.ReadMessage(ic)
	if err != nil {
		t.Fatal(err)
	}
	rh, _, err := giop.DecodeReply(h.Order, body)
	if err != nil || rh.Status != giop.ReplyNeedsAddressingMode || rh.RequestID != 5 {
		t.Fatalf("fabricated reply = %+v, %v", rh, err)
	}
}

func TestOnReadEOFDecline(t *testing.T) {
	cEnd, sEnd := tcpPair(t)
	ic := New(cEnd, Hooks{
		OnReadEOF: func(c *Conn, err error) ([]byte, bool) { return nil, false },
	})
	_ = sEnd.Close()
	buf := make([]byte, 16)
	if _, err := ic.Read(buf); err == nil {
		t.Fatal("read succeeded after declined EOF hook")
	}
}

func TestSwapUnderRedirectsSubsequentTraffic(t *testing.T) {
	cEnd1, sEnd1 := tcpPair(t)
	cEnd2, sEnd2 := tcpPair(t)
	ic := New(cEnd1, Hooks{})

	// Small frames fit in the TCP buffer, so synchronous writes are safe.
	if _, err := ic.Write(requestFrame(1, "first")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := giop.ReadMessage(sEnd1); err != nil {
		t.Fatal(err)
	}

	ic.SwapUnder(cEnd2)

	if _, err := ic.Write(requestFrame(2, "second")); err != nil {
		t.Fatal(err)
	}
	h, body, err := giop.ReadMessage(sEnd2)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, err := giop.DecodeRequest(h.Order, body)
	if err != nil || hdr.Operation != "second" {
		t.Fatalf("redirected request = %+v, %v", hdr, err)
	}

	// The old transport is closed behind the swap (dup2 semantics, off the
	// caller's goroutine): its peer reads EOF within the deadline.
	one := make([]byte, 1)
	_ = sEnd1.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := sEnd1.Read(one); !errors.Is(err, io.EOF) {
		t.Fatalf("old transport not closed within 2 s of the swap: %v", err)
	}
}

// gatedConn is a transport whose Close blocks until release is called.
type gatedConn struct {
	net.Conn
	gate, closed           chan struct{}
	releaseOnce, closeOnce sync.Once
}

func newGatedConn(under net.Conn) *gatedConn {
	return &gatedConn{Conn: under, gate: make(chan struct{}), closed: make(chan struct{})}
}

func (g *gatedConn) Close() error {
	<-g.gate
	err := g.Conn.Close()
	g.closeOnce.Do(func() { close(g.closed) })
	return err
}

func (g *gatedConn) release() { g.releaseOnce.Do(func() { close(g.gate) }) }

// requireReturns fails the test unless done is closed within a second.
func requireReturns(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s did not return while the old transport's Close was blocked", what)
	}
}

// requireClosedSoon releases g's Close and fails the test unless it has
// completed within a second.
func (g *gatedConn) requireClosedSoon(t *testing.T) {
	t.Helper()
	g.release()
	select {
	case <-g.closed:
	case <-time.After(time.Second):
		t.Fatal("old transport not closed within 1 s of its Close being let through")
	}
}

// TestSwapUnderClosesBehind is the close-placement guard of `make
// perf-guards`: SwapUnder returns while the old transport's Close is still
// blocked — called directly, and from inside OnReadFrame as the MEAD hook
// calls it, where the reply behind the swap reaches the ORB meanwhile — and
// the close runs once it is let through.
func TestSwapUnderClosesBehind(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		old := newGatedConn(&sinkConn{})
		t.Cleanup(old.release)
		ic := New(old, Hooks{})
		swapped := make(chan struct{})
		go func() { ic.SwapUnder(&sinkConn{}); close(swapped) }()
		requireReturns(t, "SwapUnder", swapped)
		old.requireClosedSoon(t)
	})
	t.Run("from OnReadFrame", func(t *testing.T) {
		cEnd1, sEnd1 := tcpPair(t)
		cEnd2, _ := tcpPair(t)
		old := newGatedConn(cEnd1)
		t.Cleanup(old.release)
		ic := New(old, Hooks{
			OnReadFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
				c.SwapUnder(cEnd2)
				return f.Raw, nil
			},
		})
		if _, err := sEnd1.Write(replyFrame(1)); err != nil {
			t.Fatal(err)
		}
		read := make(chan struct{})
		go func() {
			defer close(read)
			if _, _, err := giop.ReadMessage(ic); err != nil {
				t.Error(err)
			}
		}()
		requireReturns(t, "the read of the reply behind the swap", read)
		old.requireClosedSoon(t)
		if ic.Under() != cEnd2 {
			t.Fatal("the swap did not redirect the stream")
		}
	})
}

func TestSwapInsideReadHook(t *testing.T) {
	// The MEAD client scheme swaps the transport from within the read hook
	// that delivers the final reply of the failing replica.
	cEnd1, sEnd1 := tcpPair(t)
	cEnd2, sEnd2 := tcpPair(t)
	ic := New(cEnd1, Hooks{
		OnReadFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
			c.SwapUnder(cEnd2)
			return f.Raw, nil
		},
	})
	go func() { _, _ = sEnd1.Write(replyFrame(1)) }()
	if _, _, err := giop.ReadMessage(ic); err != nil {
		t.Fatal(err)
	}
	if _, err := ic.Write(requestFrame(2, "after-swap")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := giop.ReadMessage(sEnd2); err != nil {
		t.Fatal(err)
	}
}

func TestCloseUnblocksRead(t *testing.T) {
	cEnd, _ := tcpPair(t)
	ic := New(cEnd, Hooks{})
	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		_, err := ic.Read(buf)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = ic.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("read returned nil after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read did not unblock on close")
	}
}

func TestReadHookErrorPropagates(t *testing.T) {
	cEnd, sEnd := tcpPair(t)
	hookErr := errors.New("reject")
	ic := New(cEnd, Hooks{
		OnReadFrame: func(c *Conn, f giop.Frame) ([]byte, error) { return nil, hookErr },
	})
	go func() { _, _ = sEnd.Write(replyFrame(1)) }()
	buf := make([]byte, 4)
	if _, err := ic.Read(buf); !errors.Is(err, hookErr) {
		t.Fatalf("err = %v, want hook error", err)
	}
}

func TestAddrsAndDeadlines(t *testing.T) {
	cEnd, _ := tcpPair(t)
	ic := New(cEnd, Hooks{})
	if ic.LocalAddr() == nil || ic.RemoteAddr() == nil {
		t.Fatal("nil addrs")
	}
	if err := ic.SetDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := ic.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := ic.SetWriteDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
}

// TestPeekFrameLen: the frame boundaries both directions of the Conn rely
// on, as giop.FrameAt reports them.
func TestPeekFrameLen(t *testing.T) {
	req := requestFrame(1, "x")
	if _, n, err := giop.FrameAt(req); err != nil || n != len(req) {
		t.Fatalf("peek GIOP = %d,%v", n, err)
	}
	mead := giop.EncodeMead(giop.MeadNotice, []byte{1})
	if _, n, err := giop.FrameAt(mead); err != nil || n != len(mead) {
		t.Fatalf("peek MEAD = %d,%v", n, err)
	}
	for _, frame := range [][]byte{req, mead} {
		for k := 0; k < len(frame); k++ {
			if _, n, err := giop.FrameAt(frame[:k]); err != nil || n != 0 {
				t.Fatalf("%d of %d bytes: got %d,%v, want incomplete", k, len(frame), n, err)
			}
		}
	}
	if _, _, err := giop.FrameAt([]byte("XXXXXXXXXXXXXXXX")); !errors.Is(err, giop.ErrBadMagic) {
		t.Fatalf("junk: err = %v, want ErrBadMagic", err)
	}
}

// TestPropertyPassThroughPreservesStream: with no hooks, any sequence of
// GIOP and MEAD frames crosses the interceptor byte-identically in both
// directions.
func TestPropertyPassThroughPreservesStream(t *testing.T) {
	f := func(seed int64, frameSpec []byte) bool {
		if len(frameSpec) == 0 || len(frameSpec) > 24 {
			return true
		}
		cEnd, sEnd := tcpPair(t)
		ic := New(cEnd, Hooks{})

		var want bytes.Buffer
		for i, b := range frameSpec {
			var frame []byte
			switch b % 3 {
			case 0:
				frame = requestFrame(uint32(i), "op")
			case 1:
				frame = replyFrame(uint32(i))
			default:
				frame = giop.EncodeMead(giop.MeadNotice, []byte{b})
			}
			want.Write(frame)
		}
		go func() {
			data := want.Bytes()
			// Write in odd-sized chunks to exercise reassembly.
			for i := 0; i < len(data); i += 7 {
				end := i + 7
				if end > len(data) {
					end = len(data)
				}
				if _, err := ic.Write(data[i:end]); err != nil {
					return
				}
			}
		}()
		got := make([]byte, want.Len())
		_ = sEnd.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(sEnd, got); err != nil {
			return false
		}
		return bytes.Equal(got, want.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteRejectsCorruptMagic: bytes that can never frame must fail the
// Write with a typed error instead of accumulating forever.
func TestWriteRejectsCorruptMagic(t *testing.T) {
	cEnd, _ := tcpPair(t)
	ic := New(cEnd, Hooks{})
	junk := make([]byte, 64)
	for i := range junk {
		junk[i] = 'X'
	}
	if _, err := ic.Write(junk); !errors.Is(err, giop.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if len(ic.writeBuf) != 0 {
		t.Fatalf("writeBuf retained %d bytes after corrupt stream", len(ic.writeBuf))
	}
}

// TestWriteRejectsOversizedFrame: a hostile length prefix beyond
// giop.MaxMessageSize errors out instead of waiting for (and buffering
// toward) a frame that would exhaust memory.
func TestWriteRejectsOversizedFrame(t *testing.T) {
	cEnd, _ := tcpPair(t)
	ic := New(cEnd, Hooks{})
	hdr := giop.EncodeHeader(giop.Header{
		Major: giop.VersionMajor, Minor: giop.VersionMinor,
		Type: giop.MsgRequest, Size: giop.MaxMessageSize + 1,
	})
	if _, err := ic.Write(hdr); !errors.Is(err, giop.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if len(ic.writeBuf) != 0 {
		t.Fatalf("writeBuf retained %d bytes after oversized frame", len(ic.writeBuf))
	}
}

// TestOnReadEOFTruncatedSubstitute: a hook that fabricates a truncated
// frame leaves the ORB to detect the short stream itself (documented on
// Hooks.OnReadEOF) — the interceptor surfaces the bytes verbatim, and the
// next read hits the hook again rather than desyncing the stream.
func TestOnReadEOFTruncatedSubstitute(t *testing.T) {
	cEnd, sEnd := tcpPair(t)
	whole := replyFrame(9)
	var calls int
	ic := New(cEnd, Hooks{
		OnReadEOF: func(c *Conn, err error) ([]byte, bool) {
			calls++
			if calls == 1 {
				return whole[:len(whole)/2], true // torn substitute
			}
			return nil, false
		},
	})
	_ = sEnd.Close()
	_, _, err := giop.ReadMessage(ic)
	if err == nil {
		t.Fatal("truncated substitute produced a whole message")
	}
	if calls != 2 {
		t.Fatalf("OnReadEOF calls = %d, want 2 (torn bytes, then decline)", calls)
	}
}

// TestSwapUnderRacesClose: however Close and a hook-driven SwapUnder
// interleave, the replacement transport must end up closed — a repair racing
// a shutdown cannot resurrect the stream or leak its socket.
func TestSwapUnderRacesClose(t *testing.T) {
	for i := 0; i < 50; i++ {
		cEnd1, _ := tcpPair(t)
		cEnd2, _ := tcpPair(t)
		ic := New(cEnd1, Hooks{})
		start := make(chan struct{})
		done := make(chan struct{}, 2)
		go func() { <-start; _ = ic.Close(); done <- struct{}{} }()
		go func() { <-start; ic.SwapUnder(cEnd2); done <- struct{}{} }()
		close(start)
		<-done
		<-done
		// Whichever won, the swapped-in conn is closed: either the swap
		// landed first and Close took it down, or Close landed first and
		// SwapUnder refused the resurrection.
		if _, err := cEnd2.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("iteration %d: replacement conn alive after close/swap race (err = %v)", i, err)
		}
	}
}

// TestOnCloseRunsOnceBeforeTransportCloses: the close notification fires on
// the first Close only, with the Conn already refusing swaps (a transport a
// hook hands over afterwards is closed, not adopted) and the current
// transport still open.
func TestOnCloseRunsOnceBeforeTransportCloses(t *testing.T) {
	under, late := &sinkConn{}, &sinkConn{}
	calls := 0
	ic := New(under, Hooks{OnClose: func(c *Conn) {
		calls++
		if under.closed.Load() {
			t.Error("transport closed before OnClose ran")
		}
		c.SwapUnder(late)
	}})
	_ = ic.Close()
	_ = ic.Close()
	if calls != 1 {
		t.Fatalf("OnClose ran %d times, want 1", calls)
	}
	if !under.closed.Load() || !late.closed.Load() || ic.Under() != net.Conn(under) {
		t.Fatalf("after Close: transport closed = %v, late swap closed = %v, late swap adopted = %v",
			under.closed.Load(), late.closed.Load(), ic.Under() != net.Conn(under))
	}
}

// TestWriteErrorRecoveryPreservesPiggyback: when the transport dies under a
// piggybacked MEAD+GIOP write, the OnWriteError repair must retransmit the
// whole rewritten output — both frames, in order — on the new transport.
func TestWriteErrorRecoveryPreservesPiggyback(t *testing.T) {
	cEnd1, _ := tcpPair(t)
	cEnd2, sEnd2 := tcpPair(t)
	mead := giop.EncodeMead(giop.MeadFailover, []byte("to"))
	var repairs int
	ic := New(cEnd1, Hooks{
		OnWriteFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
			out := make([]byte, 0, len(mead)+len(f.Raw))
			out = append(out, mead...)
			return append(out, f.Raw...), nil
		},
		OnWriteError: func(c *Conn, err error) bool {
			repairs++
			c.SwapUnder(cEnd2)
			return true
		},
	})
	_ = cEnd1.Close() // transport dies before the write reaches the wire
	if _, err := ic.Write(requestFrame(3, "retry")); err != nil {
		t.Fatalf("recovered write: %v", err)
	}
	if repairs != 1 {
		t.Fatalf("repairs = %d, want 1", repairs)
	}
	f1, err := readFrame(sEnd2)
	if err != nil || f1.Kind != giop.FrameMEAD {
		t.Fatalf("first retransmitted frame = %+v, %v; want MEAD piggyback", f1, err)
	}
	h, body, err := giop.ReadMessage(sEnd2)
	if err != nil || h.Type != giop.MsgRequest {
		t.Fatalf("second retransmitted frame: %+v, %v", h, err)
	}
	hdr, _, err := giop.DecodeRequest(h.Order, body)
	if err != nil || hdr.Operation != "retry" {
		t.Fatalf("retransmitted request = %+v, %v", hdr, err)
	}
}

// TestWriteBufReclaimedAfterFrames: the accumulation buffer must not grow
// without bound across many complete frames.
func TestWriteBufReclaimedAfterFrames(t *testing.T) {
	cEnd, sEnd := tcpPair(t)
	ic := New(cEnd, Hooks{})
	go io.Copy(io.Discard, sEnd)
	frame := requestFrame(1, "op")
	for i := 0; i < 200; i++ {
		if _, err := ic.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	if len(ic.writeBuf) != 0 {
		t.Fatalf("writeBuf holds %d bytes after whole frames", len(ic.writeBuf))
	}
	if cap(ic.writeBuf) > 4*len(frame) {
		t.Fatalf("writeBuf capacity drifted to %d", cap(ic.writeBuf))
	}
}

// sinkConn is a transport that records every Write it is handed, so a test
// can count transport writes — the stand-in for write system calls — and see
// which bytes each carried. failNext makes that many Writes fail with a
// stream-end error first.
type sinkConn struct {
	net.Conn // nil: only Write and Close are ever called
	writes   [][]byte
	failNext int
	closed   atomic.Bool // set by a Close that may run behind a swap
}

func (s *sinkConn) Write(p []byte) (int, error) {
	if s.failNext > 0 {
		s.failNext--
		return 0, net.ErrClosed
	}
	s.writes = append(s.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (s *sinkConn) Close() error { s.closed.Store(true); return nil }

// closedWithin reports whether s has been closed by the time d has passed.
func (s *sinkConn) closedWithin(d time.Duration) bool {
	for deadline := time.Now().Add(d); !s.closed.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

func (s *sinkConn) stream() []byte { return bytes.Join(s.writes, nil) }

// burst is n reply frames as separate segments, the shape of one coalesced
// flush of orb's connection writer.
func burst(n int) (net.Buffers, [][]byte) {
	var v net.Buffers
	var frames [][]byte
	for i := 1; i <= n; i++ {
		f := replyFrame(uint32(i))
		frames = append(frames, f)
		v = append(v, f)
	}
	return v, frames
}

// TestWriteBuffersLeavesInOneWrite: a burst handed over in one vectored call
// passes the hook frame by frame and reaches the transport as ONE write, with
// rewrites (a substituted frame, a piggybacked MEAD frame, a consumed frame)
// landing in frame order and every other frame byte-exact.
func TestWriteBuffersLeavesInOneWrite(t *testing.T) {
	sink := &sinkConn{}
	mead := giop.EncodeMead(giop.MeadFailover, []byte("next:1"))
	forward := giop.EncodeReply(cdr.BigEndian,
		giop.ReplyHeader{RequestID: 3, Status: giop.ReplyLocationForward}, nil)
	var seen []uint32
	ic := New(sink, Hooks{
		OnWriteFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
			id, err := giop.ReplyIDOf(f.Header.Order, f.Body())
			if err != nil {
				return nil, err
			}
			seen = append(seen, id)
			switch id {
			case 3: // the LOCATION_FORWARD scheme's rewrite
				return forward, nil
			case 5: // the MEAD scheme's piggyback
				return append(append([]byte(nil), mead...), f.Raw...), nil
			case 7:
				return nil, nil
			}
			return f.Raw, nil
		},
	})
	v, frames := burst(8)
	n, err := ic.WriteBuffers(v)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	var total int
	for i, f := range frames {
		total += len(f)
		switch i + 1 {
		case 3:
			want = append(want, forward...)
		case 5:
			want = append(append(want, mead...), f...)
		case 7:
		default:
			want = append(want, f...)
		}
	}
	if int(n) != total {
		t.Fatalf("WriteBuffers consumed %d bytes, want %d", n, total)
	}
	if len(sink.writes) != 1 {
		t.Fatalf("burst of 8 frames reached the transport in %d writes, want 1", len(sink.writes))
	}
	if !bytes.Equal(sink.writes[0], want) {
		t.Fatal("rewritten burst differs from the frame-by-frame expectation")
	}
	if len(seen) != 8 || seen[0] != 1 || seen[7] != 8 {
		t.Fatalf("hook saw frames %v, want 1..8 in order", seen)
	}
	// A multi-frame Write is a burst too, and a frame split across two
	// vectored segments is completed by the second.
	sink.writes = nil
	ic = New(sink, Hooks{})
	joined := bytes.Join(frames, nil)
	if _, err := ic.Write(joined); err != nil {
		t.Fatal(err)
	}
	cut := len(frames[0]) + 5
	if _, err := ic.WriteBuffers(net.Buffers{joined[:cut], joined[cut:]}); err != nil {
		t.Fatal(err)
	}
	if len(sink.writes) != 2 || !bytes.Equal(sink.writes[0], joined) || !bytes.Equal(sink.writes[1], joined) {
		t.Fatalf("multi-frame Write / split segments: %d transport writes", len(sink.writes))
	}
}

// TestSwapFromWriteHookSplitsBatch: frames accepted before a hook swaps the
// transport leave on the old one (written by the swap itself; the close
// follows behind it); the frame whose hook swapped, and the rest of the
// burst, leave on the new one.
func TestSwapFromWriteHookSplitsBatch(t *testing.T) {
	oldT, newT := &sinkConn{}, &sinkConn{}
	ic := New(oldT, Hooks{
		OnWriteFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
			if id, _ := giop.ReplyIDOf(f.Header.Order, f.Body()); id == 4 {
				if oldT.closed.Load() {
					t.Error("old transport closed before the hook swapped")
				}
				c.SwapUnder(newT)
			}
			return f.Raw, nil
		},
	})
	v, frames := burst(6)
	if _, err := ic.WriteBuffers(v); err != nil {
		t.Fatal(err)
	}
	if len(oldT.writes) != 1 || !bytes.Equal(oldT.writes[0], bytes.Join(frames[:3], nil)) {
		t.Fatalf("old transport got %d writes, want one carrying frames 1-3", len(oldT.writes))
	}
	if !oldT.closedWithin(time.Second) {
		t.Fatal("old transport left open after the swap")
	}
	if len(newT.writes) != 1 || !bytes.Equal(newT.writes[0], bytes.Join(frames[3:], nil)) {
		t.Fatalf("new transport got %d writes, want one carrying frames 4-6", len(newT.writes))
	}
}

// TestWriteErrorResendsBatchOnce: when the transport dies under a burst, the
// OnWriteError repair retransmits the whole batch — every frame, once — on
// the new transport; a second failure is not retried.
func TestWriteErrorResendsBatchOnce(t *testing.T) {
	dead, fresh := &sinkConn{failNext: 1}, &sinkConn{}
	var repairs int
	ic := New(dead, Hooks{
		OnWriteError: func(c *Conn, err error) bool {
			repairs++
			c.SwapUnder(fresh)
			return true
		},
	})
	v, frames := burst(5)
	if _, err := ic.WriteBuffers(v); err != nil {
		t.Fatalf("recovered burst: %v", err)
	}
	if repairs != 1 || len(dead.writes) != 0 {
		t.Fatalf("repairs = %d, writes on the dead transport = %d", repairs, len(dead.writes))
	}
	if len(fresh.writes) != 1 || !bytes.Equal(fresh.writes[0], bytes.Join(frames, nil)) {
		t.Fatalf("new transport got %d writes, want the whole batch once", len(fresh.writes))
	}

	fresh.failNext = 2
	if _, err := ic.WriteBuffers(v); err == nil {
		t.Fatal("a batch that failed twice reported success")
	}
	if repairs != 2 {
		t.Fatalf("repairs = %d after the second failure, want 2 (one per batch)", repairs)
	}
}

// TestReadDrainsBufferedFrames: one Read filters every whole frame the
// transport has already delivered, not one frame per call; a hook failure met
// behind deliverable bytes surfaces on the Read after them.
func TestReadDrainsBufferedFrames(t *testing.T) {
	cEnd, sEnd := tcpPair(t)
	hookErr := errors.New("reject")
	ic := New(cEnd, Hooks{
		OnReadFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
			if f.Kind == giop.FrameMEAD {
				return nil, nil
			}
			if id, _ := giop.ReplyIDOf(f.Header.Order, f.Body()); id == 9 {
				return nil, hookErr
			}
			return f.Raw, nil
		},
	})
	_, frames := burst(3)
	wire := bytes.Join([][]byte{
		frames[0], giop.EncodeMead(giop.MeadNotice, []byte{1}), frames[1], frames[2], replyFrame(9),
	}, nil)
	if _, err := sEnd.Write(wire); err != nil {
		t.Fatal(err)
	}
	// The first Read returns once frame 1 is in; by the second, loopback has
	// delivered the rest of the single write.
	want := bytes.Join(frames, nil)
	got := make([]byte, 0, len(want))
	buf := make([]byte, 4096)
	reads := 0
	for len(got) < len(want) {
		n, err := ic.Read(buf)
		if err != nil {
			t.Fatalf("read %d: %v", reads, err)
		}
		got = append(got, buf[:n]...)
		reads++
	}
	if !bytes.Equal(got, want) {
		t.Fatal("drained frames differ from the three GIOP frames sent")
	}
	if reads > 2 {
		t.Fatalf("three buffered frames took %d Reads, want at most 2", reads)
	}
	if _, err := ic.Read(buf); !errors.Is(err, hookErr) {
		t.Fatalf("err = %v, want the hook error after the good frames", err)
	}
}

// TestPassThroughFramesDoNotAllocate: in steady state a pass-through frame
// costs no allocation in either direction.
func TestPassThroughFramesDoNotAllocate(t *testing.T) {
	cEnd, sEnd := tcpPair(t)
	pass := func(c *Conn, f giop.Frame) ([]byte, error) { return f.Raw, nil }
	ic := New(cEnd, Hooks{OnReadFrame: pass, OnWriteFrame: pass})
	frame := requestFrame(1, "op")
	v := net.Buffers{frame}
	got := make([]byte, len(frame))

	go func() { _, _ = io.Copy(io.Discard, sEnd) }()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := ic.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := ic.WriteBuffers(v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("outbound pass-through frames cost %.1f allocs per Write+WriteBuffers, want 0", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		if _, err := sEnd.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(ic, got); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("inbound pass-through frames cost %.1f allocs per frame, want 0", n)
	}
}

// readFrame reads one whole frame off r, a byte at a time so that nothing
// behind it is consumed.
func readFrame(r io.Reader) (giop.Frame, error) {
	buf := make([]byte, 0, giop.HeaderLen)
	for {
		if f, n, err := giop.FrameAt(buf); err != nil || n > 0 {
			return f, err
		}
		buf = append(buf, 0)
		if _, err := io.ReadFull(r, buf[len(buf)-1:]); err != nil {
			return giop.Frame{}, err
		}
	}
}

// scriptConn is a sinkConn whose Reads hand over its chunks one by one (a
// chunk larger than the caller's buffer is handed over in pieces), then
// io.EOF.
type scriptConn struct {
	sinkConn
	chunks [][]byte
}

func (s *scriptConn) Read(p []byte) (int, error) {
	if len(s.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.chunks[0])
	if s.chunks[0] = s.chunks[0][n:]; len(s.chunks[0]) == 0 {
		s.chunks = s.chunks[1:]
	}
	return n, nil
}

// fragmentedReply is a Reply with the given id as a train of two wire
// frames: the Reply header carrying the more-fragments flag, then a Fragment.
func fragmentedReply(id uint32) (first, last []byte) {
	body := replyFrame(id)[giop.HeaderLen:]
	a, b := body[:len(body)/2], body[len(body)/2:]
	first = append(giop.EncodeHeader(giop.Header{Major: 1, Minor: 1, Type: giop.MsgReply,
		Size: uint32(len(a)), Fragmented: true}), a...)
	last = append(giop.EncodeHeader(giop.Header{Major: 1, Minor: 1, Type: giop.MsgFragment,
		Size: uint32(len(b))}), b...)
	return first, last
}

// TestSwapKeepsReadAhead: frames the old transport delivered ahead of a swap
// reach the ORB before the new transport's, and a swapping hook sees a
// fragment train only once its last fragment is in.
func TestSwapKeepsReadAhead(t *testing.T) {
	first, last := fragmentedReply(1)
	train := append(append([]byte(nil), first...), last...)
	// The hook swaps on reply 1; the new transport holds reply 3.
	for _, tc := range []struct {
		name     string
		old      [][]byte
		wantRaw1 []byte
	}{
		{"two replies in one read", [][]byte{append(replyFrame(1), replyFrame(2)...)}, replyFrame(1)},
		{"last fragment in a later read", [][]byte{first, append(append([]byte(nil), last...), replyFrame(2)...)}, train},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oldT := &scriptConn{chunks: tc.old}
			newT := &scriptConn{chunks: [][]byte{replyFrame(3)}}
			ic := New(oldT, Hooks{OnReadFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
				id, err := giop.ReplyIDOf(f.Header.Order, f.Body())
				if err != nil {
					return nil, err
				}
				if id == 1 {
					if !bytes.Equal(f.Raw, tc.wantRaw1) {
						t.Errorf("reply 1 reached the hook as %d bytes, want %d", len(f.Raw), len(tc.wantRaw1))
					}
					c.SwapUnder(newT)
				}
				return f.Raw, nil
			}})
			for _, want := range []uint32{1, 2, 3} {
				h, body, err := giop.ReadMessage(ic)
				if err != nil {
					t.Fatalf("reading reply %d: %v", want, err)
				}
				if rh, _, err := giop.DecodeReply(h.Order, body); err != nil || rh.RequestID != want {
					t.Fatalf("reply = %+v, %v; want id %d", rh, err, want)
				}
			}
			if !oldT.closedWithin(time.Second) {
				t.Fatal("old transport left open after the swap")
			}
		})
	}
}

// FuzzReadSplitsLikeFrameAt: a pass-through Conn over a transport that
// delivers a stream chunk by chunk surfaces exactly the frames giop.FrameAt
// splits off the whole stream, up to the first error, and never holds more
// than the frame it is waiting for plus one read.
func FuzzReadSplitsLikeFrameAt(f *testing.F) {
	first, last := fragmentedReply(5)
	whole := bytes.Join([][]byte{requestFrame(1, "op"), giop.EncodeMead(giop.MeadNotice, []byte{1}), replyFrame(2)}, nil)
	for _, seed := range [][]byte{
		whole,
		append(append(append([]byte(nil), first...), last...), replyFrame(6)...),
		append(append([]byte(nil), whole...), "XXXXXXXXXXXXXXXX"...),
		whole[:len(whole)-3],
		append(append([]byte(nil), first...), replyFrame(7)...),
	} {
		f.Add(seed, uint8(7))
		f.Add(seed, uint8(200))
	}
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8) {
		k := int(chunk%64) + 1
		var want [][]byte
		var splitErr error
		for rest := stream; ; {
			_, n, err := giop.FrameAt(rest)
			if err != nil || n == 0 {
				splitErr = err
				break
			}
			want = append(want, rest[:n])
			rest = rest[n:]
		}

		var chunks [][]byte
		for off := 0; off < len(stream); off += k {
			chunks = append(chunks, stream[off:min(off+k, len(stream))])
		}
		tr := &scriptConn{chunks: chunks}
		var got [][]byte
		framed := 0
		ic := New(tr, Hooks{OnReadFrame: func(c *Conn, f giop.Frame) ([]byte, error) {
			got = append(got, append([]byte(nil), f.Raw...))
			framed += len(f.Raw)
			return f.Raw, nil
		}})
		buf := make([]byte, 512)
		var readErr error
		for readErr == nil {
			_, readErr = ic.Read(buf)
			head := len(stream) - framed
			if _, n, err := giop.FrameAt(stream[framed:]); err == nil && n > 0 {
				head = n
			}
			if held := len(ic.in) - ic.inOff; held >= head+k {
				t.Fatalf("Conn holds %d unframed bytes waiting for a %d-byte frame, reading %d at a time", held, head, k)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Conn surfaced %d frames, FrameAt splits %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs", i)
			}
		}
		if errors.Is(readErr, io.EOF) != (splitErr == nil) {
			t.Fatalf("Conn ended with %v, FrameAt with %v", readErr, splitErr)
		}
	})
}
