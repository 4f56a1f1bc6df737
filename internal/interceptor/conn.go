// Package interceptor provides MEAD's transparent interception layer.
//
// The paper interposes on the eight UNIX socket calls (socket, accept,
// connect, listen, close, read, writev, select) via LD_PRELOAD library
// interpositioning, so that an *unmodified* ORB's GIOP byte stream can be
// observed, rewritten, and redirected underneath the application. Go has no
// symbol preloading, but the paper's interceptor uses those syscalls for
// exactly two capabilities, both of which this package reproduces at the
// same boundary (the transport under the ORB):
//
//   - read()/writev() interception -> frame-granular read/write hooks that
//     can consume, replace, or prepend whole GIOP/MEAD frames; and
//   - dup2()-based connection redirection -> SwapUnder, which atomically
//     repoints the byte stream at a different TCP connection while the ORB
//     keeps using the same net.Conn value ("the Interceptor opening a new
//     TCP socket ... and then using the UNIX dup2() call to close the
//     connection to the failing replica, and point the connection to the
//     new address"). Unlike dup2(), the old connection is closed behind the
//     caller (CloseBehind), not on its goroutine: the redirect is atomic,
//     the teardown of the departing replica's socket is not in front of the
//     reply the caller holds.
//
// A Conn has one reading and one writing goroutine at a time (they may be
// the same, as in a single-threaded CORBA client); only Close and SwapUnder
// may be called concurrently with Read/Write.
//
// The write side preserves the ORB's own I/O shape, as interposing on
// writev() does: every whole frame handed over in one Write or WriteBuffers
// call passes through OnWriteFrame one by one, and the outputs leave in a
// single transport write (docs/PROTOCOL.md §10).
package interceptor

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"mead/internal/giop"
)

// Hooks are the interception points. All hooks but OnClose run on the
// goroutine calling Read/Write; they may call SwapUnder.
type Hooks struct {
	// OnReadFrame observes each whole inbound frame (GIOP or MEAD) and
	// returns the bytes to surface to the ORB: f.Raw to pass it through,
	// nil to consume it silently, or substitute bytes (which must
	// themselves be whole frames). The frame aliases a per-connection
	// buffer that is recycled after the hook returns; retain copies, not
	// f.Raw/f.Body slices.
	OnReadFrame func(c *Conn, f giop.Frame) ([]byte, error)
	// OnWriteFrame observes each whole outbound frame and returns the
	// bytes to put on the wire: f.Raw to pass through, a replacement, or a
	// replacement with additional piggybacked frames. The frame aliases the
	// writer's buffer and the returned bytes are copied into the Conn's batch
	// before the next frame is offered; retain neither. A hook that calls
	// SwapUnder splits the batch: the outputs of earlier frames leave on the
	// old transport, this frame's on the new one.
	OnWriteFrame func(c *Conn, f giop.Frame) ([]byte, error)
	// OnReadEOF is consulted when the underlying transport fails mid-read
	// (EOF or reset — the paper's signature of an abrupt server failure).
	// It may repair the connection (SwapUnder) and return fabricated bytes
	// to surface plus resume=true; resume=false propagates the error. The
	// substitute bytes are surfaced to the ORB verbatim (they are not
	// re-parsed), so a hook that fabricates a truncated frame simply leaves
	// the ORB to detect the short stream itself.
	OnReadEOF func(c *Conn, err error) (substitute []byte, resume bool)
	// OnWriteError is consulted when writing a batch of whole frames to the
	// underlying transport fails with a stream-end error (reset or closed
	// pipe — the write-side signature of an abrupt peer failure). The hook
	// may repair the connection (SwapUnder) and return true, in which case
	// the whole batch is rewritten once on the new transport; false
	// propagates the error to the ORB.
	OnWriteError func(c *Conn, err error) (resume bool)
	// OnClose runs once, on the goroutine of the first Close, after the Conn
	// is marked closed and before its transport is: the place to release
	// whatever the other hooks hold for this connection and have not swapped
	// in (a dialed replacement transport, say). It may run while another
	// hook is in progress on the Read or Write goroutine; a SwapUnder that
	// hook makes afterwards closes the transport it is given.
	OnClose func(c *Conn)
}

// ErrIntercepted reports a hook-initiated failure.
var ErrIntercepted = errors.New("interceptor: hook failed the operation")

// minRead is the least free space each read from the transport is offered;
// one read typically captures several small GIOP frames.
const minRead = 4096

// Conn is the frame-aware interposing connection. It implements net.Conn.
type Conn struct {
	hooks Hooks

	underMu sync.Mutex
	under   net.Conn
	closed  bool
	// batch holds the hook outputs accepted for `under` and not yet written.
	// It shares underMu with `under` so that SwapUnder detaches it and
	// repoints the stream in one step: bytes accepted before a swap leave on
	// the transport they were accepted for.
	batch   []byte
	swapErr error // pre-swap flush failure, reported by the next flush

	// Write-goroutine state.
	writeBuf []byte // partial outbound frame awaiting its remaining bytes
	spare    []byte // the batch's backing array between flushes

	// Read-goroutine state. in[inOff:] holds the bytes read from the
	// transport and not yet framed; framer frames them where they lie, going
	// on with a fragment train in flight where its last call stopped. The
	// buffer belongs to the Conn, not to a transport, so read-ahead survives
	// SwapUnder. Filtered bytes awaiting delivery to the ORB are
	// readBuf[readOff:]; readErr is a failure met while draining frames
	// behind bytes that are still to be delivered.
	in      []byte
	inOff   int
	framer  giop.Framer
	readBuf []byte
	readOff int
	readErr error
}

var _ net.Conn = (*Conn)(nil)

// New wraps under with the given hooks.
func New(under net.Conn, hooks Hooks) *Conn {
	return &Conn{under: under, hooks: hooks}
}

// Under returns the current underlying connection.
func (c *Conn) Under() net.Conn {
	c.underMu.Lock()
	defer c.underMu.Unlock()
	return c.under
}

// SwapUnder atomically redirects the stream to newConn — the dup2()
// equivalent — and closes the old transport behind the caller (CloseBehind)
// rather than on its goroutine. Hook outputs already accepted for the old
// transport are written to it first, synchronously (a hook swapping
// mid-burst splits the batch at the swap); buffered inbound bytes are
// preserved (they were already delivered by the old replica). Swapping a
// connection that has already been Closed closes newConn instead of
// resurrecting the stream, so a hook-driven repair racing Close cannot leak
// the replacement transport.
func (c *Conn) SwapUnder(newConn net.Conn) {
	c.underMu.Lock()
	if c.closed {
		c.underMu.Unlock()
		if newConn != nil {
			_ = newConn.Close()
		}
		return
	}
	old, pending := c.under, c.batch
	c.under, c.batch = newConn, nil
	c.underMu.Unlock()
	if old == nil {
		return
	}
	if len(pending) > 0 {
		if _, err := old.Write(pending); err != nil {
			c.underMu.Lock()
			c.swapErr = err
			c.underMu.Unlock()
		}
	}
	if old != newConn {
		CloseBehind(old)
	}
}

// CloseBehind closes a transport the stream has left on a goroutine of its
// own, so that the close(2) of a departing replica's socket does not sit
// between a hand-off and the reply its caller is about to pass up. The same
// close still runs: on one P when the caller next blocks, with several in
// parallel. Nothing waits for it; the goroutine ends when Close returns.
func CloseBehind(conn net.Conn) {
	go conn.Close()
}

// Close closes the current underlying transport.
func (c *Conn) Close() error {
	c.underMu.Lock()
	first := !c.closed
	c.closed = true
	under := c.under
	c.underMu.Unlock()
	if first && c.hooks.OnClose != nil {
		c.hooks.OnClose(c)
	}
	if under == nil {
		return nil
	}
	return under.Close()
}

func (c *Conn) isClosed() bool {
	c.underMu.Lock()
	defer c.underMu.Unlock()
	return c.closed
}

// Read returns filtered stream bytes. It frames the bytes read from the
// underlying transport, passes each whole frame through OnReadFrame, and
// serves the results; the ORB on top performs its usual header-then-body
// reads and never observes MEAD frames or suppressed messages. One Read
// filters every whole frame the transport has already delivered, so a burst
// reaches the ORB's own read buffer in one piece.
func (c *Conn) Read(p []byte) (int, error) {
	if c.readOff == len(c.readBuf) {
		c.readBuf, c.readOff = c.readBuf[:0], 0
		if err := c.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, c.readBuf[c.readOff:])
	c.readOff += n
	return n, nil
}

// fill blocks until readBuf holds filtered bytes, then keeps filtering while
// another whole frame is already in `in`; a fragment train counts once its
// last fragment is in. An error met behind deliverable bytes waits in readErr
// for the Read that finds readBuf drained.
func (c *Conn) fill() error {
	if err := c.readErr; err != nil {
		c.readErr = nil
		return err
	}
	for {
		f, n, err := giop.FrameAt(c.in[c.inOff:])
		switch {
		case c.isClosed(): // a closed Conn surfaces no more frames
			err = net.ErrClosed
		case err != nil: // the head of `in` can never become a frame
		case n > 0:
			c.inOff += n
			out := f.Raw
			if c.hooks.OnReadFrame != nil {
				out, err = c.hooks.OnReadFrame(c, f)
			}
			if err == nil {
				c.readBuf = append(c.readBuf, out...)
			}
		case len(c.readBuf) > 0:
			return nil
		default:
			err = c.readMore()
		}
		if err != nil {
			if len(c.readBuf) == 0 {
				return err
			}
			c.readErr = err
			return nil
		}
	}
}

// readMore moves the partial frame at in's head to the front and reads once
// from the transport behind it. At a stream end the dead transport's partial
// frame is dropped and OnReadEOF may repair the stream, appending its
// substitute to readBuf.
func (c *Conn) readMore() error {
	under := c.Under()
	n := copy(c.in, c.in[c.inOff:])
	c.in, c.inOff = slices.Grow(c.in[:n], minRead), 0
	m, err := under.Read(c.in[n:cap(c.in)])
	c.in = c.in[:n+m]
	if m > 0 || err == nil {
		return nil // a persistent failure is reported again by the next read
	}
	if !isStreamEnd(err) {
		return err
	}
	c.in = c.in[:0]
	if !c.isClosed() && c.hooks.OnReadEOF != nil {
		if sub, resume := c.hooks.OnReadEOF(c, err); resume {
			c.readBuf = append(c.readBuf, sub...)
			return nil
		}
	}
	return err
}

// Write accumulates outbound bytes until whole frames are available, passes
// each frame through OnWriteFrame, and writes the (possibly rewritten)
// results to the wire in one transport write.
//
// A corrupt or oversized frame header fails the Write with the underlying
// typed error (ErrBadMagic, ErrBadVersion, giop.ErrTooLarge) instead of
// accumulating bytes forever waiting for a frame that can never complete:
// with valid headers the partial-frame buffer is bounded by one maximum-size
// frame. Frames accepted ahead of a failing one still reach the wire.
func (c *Conn) Write(p []byte) (int, error) {
	err := c.accept(p)
	if ferr := c.flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteBuffers is the vectored Write: the segments of v are consumed as one
// contiguous stretch of the stream and every frame they complete leaves in a
// single transport write. orb's connection writer hands its coalesced flush
// here, which net.Buffers.WriteTo would otherwise split into one Write per
// segment on anything but a raw TCP connection.
func (c *Conn) WriteBuffers(v net.Buffers) (int64, error) {
	var n int64
	var err error
	for _, seg := range v {
		if err = c.accept(seg); err != nil {
			break
		}
		n += int64(len(seg))
	}
	if ferr := c.flush(); err == nil {
		err = ferr
	}
	return n, err
}

// accept runs every whole frame now available — the held partial frame once
// p completes it, then the frames inside p — through OnWriteFrame and queues
// the outputs on the batch. Only a trailing partial frame is kept back, in
// writeBuf; after an error the outbound stream is dead and nothing is.
func (c *Conn) accept(p []byte) error {
	src := p
	if len(c.writeBuf) > 0 {
		c.writeBuf = append(c.writeBuf, p...)
		src = c.writeBuf
	}
	rest, err := c.acceptFrames(src)
	c.writeBuf = append(c.writeBuf[:0], rest...)
	return err
}

// acceptFrames consumes the whole frames at the head of src and returns the
// partial frame behind them. Frames are parsed where they lie
// (capacity-capped so hook-side appends cannot scribble on the next frame),
// so a pass-through frame is copied once, into the batch.
func (c *Conn) acceptFrames(src []byte) (rest []byte, err error) {
	for {
		f, n, err := giop.FrameAt(src)
		if err != nil {
			return nil, fmt.Errorf("interceptor: outbound stream corrupt: %w", err)
		}
		if n == 0 {
			return src, nil // wait for the rest of the frame
		}
		out := f.Raw
		if c.hooks.OnWriteFrame != nil {
			if out, err = c.hooks.OnWriteFrame(c, f); err != nil {
				return nil, err
			}
		}
		if len(out) > 0 {
			c.underMu.Lock()
			if c.batch == nil {
				c.batch, c.spare = c.spare[:0], nil
			}
			c.batch = append(c.batch, out...)
			c.underMu.Unlock()
		}
		src = src[n:]
	}
}

// flush puts the batch on the wire in one transport write. A stream-end
// failure is offered to OnWriteError, which may repair the transport
// (SwapUnder) and resume; the whole batch is then retransmitted once on the
// new transport. A truncated first attempt is safe to repeat: the peer
// discards the partial frame when its end of the broken connection dies.
func (c *Conn) flush() error {
	c.underMu.Lock()
	out, under, err := c.batch, c.under, c.swapErr
	c.batch, c.swapErr = nil, nil
	c.underMu.Unlock()
	if len(out) == 0 {
		return err
	}
	_, werr := under.Write(out)
	if werr != nil && !c.isClosed() && isStreamEnd(werr) &&
		c.hooks.OnWriteError != nil && c.hooks.OnWriteError(c, werr) {
		_, werr = c.Under().Write(out)
	}
	c.spare = out[:0]
	if err == nil {
		err = werr
	}
	return err
}

// LocalAddr returns the current transport's local address.
func (c *Conn) LocalAddr() net.Addr { return c.Under().LocalAddr() }

// RemoteAddr returns the current transport's remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.Under().RemoteAddr() }

// SetDeadline sets deadlines on the current transport.
func (c *Conn) SetDeadline(t time.Time) error { return c.Under().SetDeadline(t) }

// SetReadDeadline sets the read deadline on the current transport.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.Under().SetReadDeadline(t) }

// SetWriteDeadline sets the write deadline on the current transport.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.Under().SetWriteDeadline(t) }

// isStreamEnd reports whether err looks like the peer vanishing (EOF,
// reset, or closed pipe) as opposed to a protocol error.
func isStreamEnd(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return !ne.Timeout()
	}
	// syscall-level resets arrive as *net.OpError wrapping ECONNRESET.
	var oe *net.OpError
	return errors.As(err, &oe)
}
