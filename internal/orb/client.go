package orb

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
	"mead/internal/telemetry"
)

// ClientOption configures a ClientORB.
type ClientOption interface{ applyClient(*ClientORB) }

type clientOptionFunc func(*ClientORB)

func (f clientOptionFunc) applyClient(c *ClientORB) { f(c) }

// WithClientConnWrapper interposes w on every dialed connection (the
// client-side MEAD interceptor).
func WithClientConnWrapper(w ConnWrapper) ClientOption {
	return clientOptionFunc(func(c *ClientORB) { c.wrap = w })
}

// DialFunc opens the transport to a replica. The experiment harness swaps
// in netfault's chaos dialer here; the default is net.DialTimeout.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// WithDialer replaces the transport dialer for every connection this ORB
// opens.
func WithDialer(d DialFunc) ClientOption {
	return clientOptionFunc(func(c *ClientORB) { c.dial = d })
}

// WithTelemetry attaches the process telemetry: the ORB records wire-level
// counters, round-trip histograms, and recovery-trace events (request sent,
// retransmit, forward taken, stale reply) on every invocation path. The
// recording paths add no allocations; a nil Telemetry is equivalent to not
// setting the option.
func WithTelemetry(t *telemetry.Telemetry) ClientOption {
	return clientOptionFunc(func(c *ClientORB) { c.tel = t })
}

// WithDialTimeout sets the connect timeout (default 5s).
func WithDialTimeout(d time.Duration) ClientOption {
	return clientOptionFunc(func(c *ClientORB) { c.dialTimeout = d })
}

// WithConnectionPool makes the ORB's references share connections: exactly
// one per IIOP host:port, held by every ObjectRef bound there, and invocations
// on one ObjectRef may then overlap — a burst of concurrent requests leaves in
// one vectored write and replies are matched to their callers by request id;
// every frame on the wire remains a standalone standard GIOP message. Without
// it each reference has a connection of its own and serializes its calls.
//
// Shared connections are incompatible with client-side interceptor schemes
// that assume a single in-flight request per connection (NEEDS_ADDRESSING's
// fabricated replies, the MEAD piggyback swap); callers wire the option up
// only for schemes without that assumption.
func WithConnectionPool() ClientOption {
	return clientOptionFunc(func(c *ClientORB) { c.pool = &connPool{conns: make(map[string]*muxConn)} })
}

// ClientORB is the client-side ORB.
type ClientORB struct {
	wrap        ConnWrapper
	dial        DialFunc
	dialTimeout time.Duration
	pool        *connPool            // nil unless WithConnectionPool
	tel         *telemetry.Telemetry // nil-safe; see WithTelemetry
}

// NewClient returns a client ORB.
func NewClient(opts ...ClientOption) *ClientORB {
	c := &ClientORB{
		dial:        net.DialTimeout,
		dialTimeout: 5 * time.Second,
	}
	for _, o := range opts {
		o.applyClient(c)
	}
	return c
}

// Close closes the connections the ORB's references share: invocations in
// flight on them observe COMM_FAILURE, later ones ErrClientClosed. Without
// WithConnectionPool there is nothing to close here: each reference owns its
// connection and lets go of it in ObjectRef.Close.
func (c *ClientORB) Close() error {
	if c.pool != nil {
		c.pool.close()
	}
	return nil
}

// PooledConnections reports how many shared connections are currently live
// (0 when pooling is disabled). Diagnostics and tests use it to assert that
// many references share one transport.
func (c *ClientORB) PooledConnections() int {
	if c.pool == nil {
		return 0
	}
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return len(c.pool.conns)
}

// acquire returns a connection to addr for one more reference to hold: a new
// one of its own, or under WithConnectionPool the live shared one, made if
// there is none (concurrent callers for one address share a single dial).
func (c *ClientORB) acquire(addr string) (*muxConn, error) {
	var mc *muxConn
	if p := c.pool; p == nil {
		mc = newMuxConn(c, addr)
	} else {
		p.mu.Lock()
		if p.conns == nil {
			p.mu.Unlock()
			return nil, ErrClientClosed
		}
		if mc = p.conns[addr]; mc == nil {
			mc = newMuxConn(c, addr)
			p.conns[addr] = mc
		}
		mc.holders++
		p.mu.Unlock()
	}
	mc.dialOnce.Do(mc.dial)
	if mc.dialErr != nil {
		mc.release()
		return nil, mc.dialErr
	}
	return mc, nil
}

// maxForwards bounds the LOCATION_FORWARD / NEEDS_ADDRESSING_MODE
// retransmissions of one invocation, so a server that forwards to itself
// cannot loop a caller forever.
const maxForwards = 8

// Stats counts the transparent recovery actions a reference performed;
// the experiment harness reads them to report retransmission overheads.
type Stats struct {
	Invocations     int
	Forwards        int // LOCATION_FORWARD retransmissions
	Retransmissions int // NEEDS_ADDRESSING_MODE retransmissions
}

// ObjectRef is a client-side reference to a (possibly replicated) CORBA
// object. It holds the connection its requests travel on from its first call
// until a LOCATION_FORWARD, Redirect or Close makes it let go. On a plain ORB
// the connection is its own and invocations on one ObjectRef are serialized,
// as with a single-threaded CORBA client: one request per connection at a
// time, which the client-side interceptors depend on. Under WithConnectionPool
// it shares the connection of its endpoint and invocations proceed concurrently.
type ObjectRef struct {
	orb *ClientORB

	// serial is held across a whole call on a plain ORB.
	serial sync.Mutex

	mu  sync.Mutex
	tgt target
	mc  *muxConn // nil before the first call and after letting go

	invocations, forwards, retransmissions atomic.Int64
}

// target is an IOR with the endpoint and object key of its IIOP profile
// decoded once, when the reference is bound to it, rather than on every
// invocation.
type target struct {
	ior  giop.IOR
	addr string // "host:port"; empty when the IOR has no usable IIOP profile
	key  []byte
}

func resolveTarget(ior giop.IOR) target {
	t := target{ior: ior}
	if prof, err := ior.IIOP(); err == nil {
		t.addr = net.JoinHostPort(prof.Host, strconv.Itoa(int(prof.Port)))
		t.key = prof.ObjectKey
	}
	return t
}

// Object materializes a reference from an IOR.
func (c *ClientORB) Object(ior giop.IOR) *ObjectRef {
	return &ObjectRef{orb: c, tgt: resolveTarget(ior)}
}

// IOR returns the reference's current IOR (it changes when the ORB follows
// a LOCATION_FORWARD).
func (o *ObjectRef) IOR() giop.IOR {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.tgt.ior
}

// Stats returns a snapshot of the reference's recovery counters.
func (o *ObjectRef) Stats() Stats {
	return Stats{
		Invocations:     int(o.invocations.Load()),
		Forwards:        int(o.forwards.Load()),
		Retransmissions: int(o.retransmissions.Load()),
	}
}

// Redirect rebinds the reference to a new IOR, letting go of the connection
// it holds. Reactive client strategies call it after a failure.
func (o *ObjectRef) Redirect(ior giop.IOR) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.dropLocked()
	o.tgt = resolveTarget(ior)
}

// Close lets go of the reference's connection; a later call takes a new one.
func (o *ObjectRef) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.dropLocked()
	return nil
}

// dropLocked gives up the reference's hold on its connection, which closes
// once nobody holds it and no request is left on it.
func (o *ObjectRef) dropLocked() {
	if o.mc != nil {
		o.mc.release()
		o.mc = nil
	}
}

// enter registers the reference's next request on the connection it holds —
// taking one first if it holds none, or a failed one — and returns the object
// key to address. It runs under o.mu so that no forward, Redirect or Close can
// let go of the connection between finding it and registering on it: a request
// is on the old connection, which then stays open until it has left, or on the
// new one.
func (o *ObjectRef) enter() (*muxConn, request, []byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.mc != nil {
		if rq, err := o.mc.register(); err == nil {
			return o.mc, rq, o.tgt.key, nil
		}
		o.dropLocked()
	}
	if o.tgt.addr == "" {
		return nil, request{}, nil, giop.Transient(1, giop.CompletedNo)
	}
	mc, err := o.orb.acquire(o.tgt.addr)
	if err != nil {
		return nil, request{}, nil, err
	}
	o.mc = mc
	rq, err := mc.register()
	return mc, rq, o.tgt.key, err
}

// follow rebinds the reference to the IOR a request sent on from was
// forwarded to, and returns that address — unless the reference is no longer
// bound there: another caller's forward may already have moved it, and this
// caller then retries where the reference points now.
func (o *ObjectRef) follow(from *muxConn, fwd giop.IOR) string {
	o.forwards.Add(1)
	t := resolveTarget(fwd)
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.tgt.addr == from.addr {
		o.dropLocked()
		o.tgt = t
	}
	return t.addr
}

// Invoke performs one two-way CORBA invocation: marshal, send, await reply,
// and transparently handle LOCATION_FORWARD and NEEDS_ADDRESSING_MODE per
// the GIOP specification. Both retransmission paths are exactly the
// mechanics the paper's proactive schemes trigger.
func (o *ObjectRef) Invoke(op string, writeArgs func(*cdr.Encoder), readResult func(*cdr.Decoder) error) error {
	if o.orb.pool == nil {
		o.serial.Lock()
		defer o.serial.Unlock()
	}
	o.invocations.Add(1)
	for attempt := 0; attempt <= maxForwards; attempt++ {
		mc, rq, key, err := o.enter()
		if err != nil {
			return err
		}
		sentAt := time.Now()
		o.orb.tel.RequestSent(mc.addr)
		hdr, mb, err := mc.roundTrip(rq, func(reqID uint32) *cdr.Encoder {
			return giop.EncodeRequestPooled(cdr.BigEndian, giop.RequestHeader{
				RequestID:        reqID,
				ResponseExpected: true,
				ObjectKey:        key,
				Operation:        op,
			}, writeArgs)
		})
		if err != nil {
			return err
		}
		o.orb.tel.ReplyReceived(time.Since(sentAt))
		// roundTrip handed us ownership of mb, which holds a Reply; rh and d
		// borrow it, and settleReply takes both over.
		rh, d, err := giop.DecodeReply(hdr.Order, mb.Bytes())
		if err != nil {
			mb.Release()
			return fmt.Errorf("orb: corrupt reply: %w", err)
		}

		action, fwd, err := settleReply(rh.Status, op, d, mb, readResult)
		switch action {
		case replyDone:
			// Even a reply whose body does not decode condemns only this
			// invocation: it was framed correctly, so the stream is in step.
			return err
		case replyForward:
			// "The client ORB, on receiving this message, transparently
			// retransmits the client request to the new replica without
			// notifying the client application."
			o.orb.tel.ForwardTaken(o.follow(mc, fwd))
		case replyRetransmit:
			// "...causes the client-side ORB to retransmit its last request
			// over the new connection." The interceptor has already swapped
			// the underlying transport; we simply resend.
			o.retransmissions.Add(1)
			o.orb.tel.Retransmitted(mc.addr)
		}
	}
	return giop.CommFailure(11, giop.CompletedMaybe)
}

// replyAction is what an invocation does next after one decoded Reply.
type replyAction uint8

const (
	replyDone       replyAction = iota // over: the error (nil on success) goes to the application
	replyForward                       // LOCATION_FORWARD: rebind to the returned IOR and retransmit
	replyRetransmit                    // NEEDS_ADDRESSING_MODE: resend the same request
)

// settleReply consumes the status-specific body of one Reply and decides the
// invocation's next step. It owns d and mb (d borrows mb) and releases each
// exactly once on every path, before returning. What a forward means for the
// reference's connection is Invoke's business.
func settleReply(status giop.ReplyStatus, op string, d *cdr.Decoder, mb *giop.MsgBuf,
	readResult func(*cdr.Decoder) error) (replyAction, giop.IOR, error) {
	defer mb.Release()
	defer d.Release()
	switch status {
	case giop.ReplyNoException:
		if readResult != nil {
			if err := readResult(d); err != nil {
				return replyDone, giop.IOR{}, fmt.Errorf("orb: decode result of %q: %w", op, err)
			}
		}
		return replyDone, giop.IOR{}, nil
	case giop.ReplyUserException:
		repo, err := d.ReadString()
		if err != nil {
			return replyDone, giop.IOR{}, fmt.Errorf("orb: corrupt user exception: %w", err)
		}
		return replyDone, giop.IOR{}, &UserException{RepoID: repo}
	case giop.ReplySystemException:
		se, err := giop.DecodeSystemException(d)
		if err != nil {
			return replyDone, giop.IOR{}, fmt.Errorf("orb: corrupt system exception: %w", err)
		}
		return replyDone, giop.IOR{}, se
	case giop.ReplyLocationForward, giop.ReplyLocationForwardPerm:
		fwd, err := giop.DecodeIOR(d)
		if err != nil {
			return replyDone, giop.IOR{}, fmt.Errorf("orb: corrupt LOCATION_FORWARD body: %w", err)
		}
		return replyForward, fwd, nil
	case giop.ReplyNeedsAddressingMode:
		return replyRetransmit, giop.IOR{}, nil
	default:
		return replyDone, giop.IOR{}, &giop.SystemException{RepoID: giop.RepoInternal, Minor: 21, Completed: giop.CompletedMaybe}
	}
}
