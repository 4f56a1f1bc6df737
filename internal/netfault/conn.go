package netfault

import (
	"net"
	"sync"
	"time"

	"mead/internal/giop"
)

// stream mode: a wrapped connection is either a GIOP/MEAD frame stream
// (faults are frame-aware) or an opaque byte stream (the GCS wire; only
// windowed latency/segmentation apply). The first four bytes decide.
const (
	modeAuto = iota
	modeFrames
	modeOpaque
)

// conn interposes the injector on one transport connection. Outbound bytes
// are reassembled into frames so faults can target the triggering request
// frame precisely; inbound bytes are reassembled so reply frames can be
// torn, duplicated or delayed as armed by the request that provoked them.
type conn struct {
	inj   *Injector
	under net.Conn
	addr  string

	wmu sync.Mutex // serializes writers (frame reassembly state)
	rmu sync.Mutex // serializes readers

	mu        sync.Mutex // guards everything below
	mode      int
	dead      error // sticky: all further I/O fails with this
	closed    bool
	closedCh  chan struct{}
	closeOnce sync.Once

	// write side (guarded by mu; long operations run under wmu only)
	wbuf       []byte
	dropWrites bool      // blackhole/partition window active
	resetAt    time.Time // when a stalled connection finally dies

	// read side, armed by the request frame that provokes the reply
	readLat     time.Duration
	dupReply    bool
	cutReplyMid bool
	stalled     bool // blackhole/partition: reads hang until resetAt

	raw        []byte // inbound bytes not yet assembled into frames
	rbuf       []byte // processed bytes ready for the caller
	pendingErr error  // surfaced once rbuf drains
	tmp        []byte
}

func newConn(i *Injector, under net.Conn, addr string) *conn {
	return &conn{
		inj:      i,
		under:    under,
		addr:     addr,
		closedCh: make(chan struct{}),
		tmp:      make([]byte, 32*1024),
	}
}

// --- write path ---------------------------------------------------------

func (c *conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()

	c.mu.Lock()
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		return 0, err
	}
	if c.dropWrites {
		if time.Now().Before(c.resetAt) {
			c.mu.Unlock()
			return len(p), nil // silently swallowed: half-open connection
		}
		c.dead = errReset("write")
		err := c.dead
		c.mu.Unlock()
		c.under.Close()
		return 0, err
	}
	c.wbuf = append(c.wbuf, p...)
	c.mu.Unlock()

	for {
		c.mu.Lock()
		if c.mode == modeOpaque {
			buf := c.wbuf
			c.wbuf = nil
			c.mu.Unlock()
			if len(buf) == 0 {
				return len(p), nil
			}
			if err := c.writeOpaque(buf); err != nil {
				return 0, err
			}
			return len(p), nil
		}
		_, n, ferr := giop.FrameAt(c.wbuf)
		if ferr != nil {
			if c.mode == modeAuto {
				c.mode = modeOpaque
				c.mu.Unlock()
				continue
			}
			// Mid-stream garbage from the layer above; pass it through
			// rather than wedge the connection.
			buf := c.wbuf
			c.wbuf = nil
			c.mu.Unlock()
			if err := c.writeAll(buf); err != nil {
				return 0, err
			}
			return len(p), nil
		}
		if n == 0 {
			c.mu.Unlock()
			return len(p), nil // partial frame: wait for more bytes
		}
		c.mode = modeFrames
		frame := append([]byte(nil), c.wbuf[:n]...)
		rest := copy(c.wbuf, c.wbuf[n:])
		c.wbuf = c.wbuf[:rest]
		c.mu.Unlock()

		if err := c.writeFrame(frame); err != nil {
			return 0, err
		}
	}
}

// writeFrame applies the plan to one complete outbound frame. Only GIOP
// Request frames advance the injector's request clock and trigger events;
// replies, MEAD control frames and GCS traffic pass through verbatim.
func (c *conn) writeFrame(frame []byte) error {
	var act action
	if isGIOPType(frame, giop.MsgRequest) {
		act = c.inj.takeRequest(c.addr)
	}

	if act.blackhole || act.partition {
		c.mu.Lock()
		c.dropWrites = true
		c.stalled = true
		c.resetAt = time.Now().Add(act.hold)
		at := c.resetAt
		c.mu.Unlock()
		// Wake any reader blocked in under.Read so it can start stalling
		// deterministically instead of hanging on a dead stream.
		c.under.SetReadDeadline(at)
		return nil // the triggering frame vanishes into the hole
	}

	if act.latency > 0 {
		c.sleep(act.latency)
	}

	if act.cutRequestMid {
		half := frame[:len(frame)/2]
		c.under.Write(half) //nolint:errcheck // the reset supersedes any write error
		err := errReset("write")
		c.mu.Lock()
		c.dead = err
		c.mu.Unlock()
		c.under.Close()
		return err
	}

	// Arm the read side before the request leaves, so a fast reply cannot
	// race past the armed fault.
	if act.cutReplyMid || act.dupReply || act.latency > 0 {
		c.mu.Lock()
		c.cutReplyMid = c.cutReplyMid || act.cutReplyMid
		c.dupReply = c.dupReply || act.dupReply
		c.readLat += act.latency
		c.mu.Unlock()
	}

	var err error
	if act.segment > 0 {
		err = c.writeSegmented(frame, act.segment, act.segmentPace)
	} else {
		err = c.writeAll(frame)
	}
	if err != nil {
		return err
	}

	if act.cutAfter {
		// The request made it out whole; the connection dies before the
		// reply can return (COMPLETED_MAYBE).
		c.under.Close()
	}
	return nil
}

// writeOpaque applies the currently active windowed faults to a non-GIOP
// byte stream (the GCS wire protocol).
func (c *conn) writeOpaque(buf []byte) error {
	act := c.inj.passiveActions(c.addr)
	if act.latency > 0 {
		c.sleep(act.latency)
	}
	if act.segment > 0 {
		return c.writeSegmented(buf, act.segment, act.segmentPace)
	}
	return c.writeAll(buf)
}

func (c *conn) writeAll(buf []byte) error {
	_, err := c.under.Write(buf)
	return err
}

func (c *conn) writeSegmented(buf []byte, segment int, pace time.Duration) error {
	for len(buf) > 0 {
		n := segment
		if n > len(buf) {
			n = len(buf)
		}
		if _, err := c.under.Write(buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		if pace > 0 && len(buf) > 0 {
			c.sleep(pace)
		}
	}
	return nil
}

// --- read path ----------------------------------------------------------

func (c *conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()

	for {
		c.mu.Lock()
		if len(c.rbuf) > 0 {
			n := copy(p, c.rbuf)
			rest := copy(c.rbuf, c.rbuf[n:])
			c.rbuf = c.rbuf[:rest]
			c.mu.Unlock()
			return n, nil
		}
		if c.pendingErr != nil {
			err := c.pendingErr
			c.dead = err
			c.mu.Unlock()
			return 0, err
		}
		if c.dead != nil {
			err := c.dead
			c.mu.Unlock()
			return 0, err
		}
		stalled, resetAt := c.stalled, c.resetAt
		c.mu.Unlock()

		if stalled {
			if d := time.Until(resetAt); d > 0 {
				select {
				case <-time.After(d):
				case <-c.closedCh:
					return 0, net.ErrClosed
				}
			}
			err := errReset("read")
			c.mu.Lock()
			c.dead = err
			c.mu.Unlock()
			c.under.Close()
			return 0, err
		}

		n, err := c.under.Read(c.tmp)
		if n > 0 {
			if ferr := c.ingest(c.tmp[:n]); ferr != nil {
				// Fault-induced reset mid-ingest: deliver what was
				// processed, then surface it.
				c.mu.Lock()
				c.pendingErr = ferr
				c.mu.Unlock()
			}
		}
		if err != nil {
			c.mu.Lock()
			if c.stalled {
				c.mu.Unlock()
				continue // the arming deadline fired; stall branch takes over
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// A caller-set deadline (e.g. the GCS handshake) expired:
				// surface it without poisoning the connection.
				if len(c.rbuf) > 0 {
					c.mu.Unlock()
					continue
				}
				c.mu.Unlock()
				return 0, err
			}
			// Real stream end: flush any torn trailing bytes first so the
			// layer above sees exactly what hit the wire.
			if len(c.raw) > 0 {
				c.rbuf = append(c.rbuf, c.raw...)
				c.raw = nil
			}
			c.pendingErr = err
			c.mu.Unlock()
		}
	}
}

// ingest folds freshly read bytes into the inbound reassembly buffer and
// applies armed read-side faults frame by frame. A non-nil return is a
// fault-fabricated reset that must surface after rbuf drains.
func (c *conn) ingest(b []byte) error {
	c.mu.Lock()
	c.raw = append(c.raw, b...)

	if c.mode == modeAuto && len(c.raw) >= 4 {
		switch string(c.raw[:4]) {
		case giop.Magic, giop.MeadMagic:
			c.mode = modeFrames
		default:
			c.mode = modeOpaque
		}
	}
	if c.mode != modeFrames {
		// Opaque (or still undecided short) stream: pass bytes straight
		// through. Windowed latency was already charged on the write side.
		c.rbuf = append(c.rbuf, c.raw...)
		c.raw = c.raw[:0]
		c.mu.Unlock()
		return nil
	}

	for {
		_, n, ferr := giop.FrameAt(c.raw)
		if ferr != nil {
			// Desynced inbound stream; hand the bytes up unmodified.
			c.rbuf = append(c.rbuf, c.raw...)
			c.raw = c.raw[:0]
			c.mu.Unlock()
			return nil
		}
		if n == 0 {
			c.mu.Unlock()
			return nil
		}
		frame := append([]byte(nil), c.raw[:n]...)
		rest := copy(c.raw, c.raw[n:])
		c.raw = c.raw[:rest]

		lat := c.readLat
		c.readLat = 0
		if lat > 0 {
			c.mu.Unlock()
			c.sleep(lat)
			c.mu.Lock()
		}

		if isGIOPType(frame, giop.MsgReply) {
			if c.cutReplyMid {
				c.cutReplyMid = false
				c.rbuf = append(c.rbuf, frame[:len(frame)/2]...)
				c.raw = c.raw[:0] // everything after the tear is lost
				c.mu.Unlock()
				c.under.Close()
				return errReset("read")
			}
			if c.dupReply {
				c.dupReply = false
				c.rbuf = append(c.rbuf, frame...)
			}
		}
		c.rbuf = append(c.rbuf, frame...)
	}
}

// --- plumbing -----------------------------------------------------------

func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		close(c.closedCh)
	})
	return c.under.Close()
}

// sleep waits for d unless the connection is closed first.
func (c *conn) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.closedCh:
	}
}

func (c *conn) LocalAddr() net.Addr                { return c.under.LocalAddr() }
func (c *conn) RemoteAddr() net.Addr               { return c.under.RemoteAddr() }
func (c *conn) SetDeadline(t time.Time) error      { return c.under.SetDeadline(t) }
func (c *conn) SetReadDeadline(t time.Time) error  { return c.under.SetReadDeadline(t) }
func (c *conn) SetWriteDeadline(t time.Time) error { return c.under.SetWriteDeadline(t) }

// isGIOPType reports whether the frame is a GIOP message of the given type
// (MEAD control frames and opaque bytes are not).
func isGIOPType(frame []byte, typ giop.MsgType) bool {
	if len(frame) < giop.HeaderLen || string(frame[:4]) != giop.Magic {
		return false
	}
	h, err := giop.ParseHeader(frame[:giop.HeaderLen])
	return err == nil && h.Type == typ
}
