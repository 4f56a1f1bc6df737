package orb

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
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
// opens (private and pooled).
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

// WithClientByteOrder sets the byte order of requests (default big-endian).
func WithClientByteOrder(order cdr.ByteOrder) ClientOption {
	return clientOptionFunc(func(c *ClientORB) { c.order = order })
}

// WithDialTimeout sets the connect timeout (default 5s).
func WithDialTimeout(d time.Duration) ClientOption {
	return clientOptionFunc(func(c *ClientORB) { c.dialTimeout = d })
}

// WithMaxForwards bounds how many LOCATION_FORWARD / NEEDS_ADDRESSING_MODE
// retransmissions one invocation may perform (default 8).
func WithMaxForwards(n int) ClientOption {
	return clientOptionFunc(func(c *ClientORB) { c.maxForwards = n })
}

// WithClientMaxBodyBytes enables GIOP 1.1 fragmentation of requests whose
// bodies exceed n bytes (0 disables; the default).
func WithClientMaxBodyBytes(n int) ClientOption {
	return clientOptionFunc(func(c *ClientORB) { c.maxBody = n })
}

// WithConnectionPool switches every ObjectRef of this ORB onto a shared
// multiplexed transport: exactly one connection per IIOP host:port, with
// concurrent in-flight requests demultiplexed by request id. Invocations on
// one ObjectRef are then no longer serialized against each other, and a
// burst of concurrent requests leaves in one vectored write; every frame on
// the wire remains a standalone standard GIOP message.
//
// The pooled transport is incompatible with client-side interceptor schemes
// that assume a single in-flight request per connection (NEEDS_ADDRESSING's
// fabricated replies, the MEAD piggyback swap); callers wire it up only for
// schemes without that assumption.
func WithConnectionPool() ClientOption {
	return clientOptionFunc(func(c *ClientORB) { c.pool = newConnPool(c) })
}

// ClientORB is the client-side ORB.
type ClientORB struct {
	order       cdr.ByteOrder
	wrap        ConnWrapper
	dial        DialFunc
	dialTimeout time.Duration
	maxForwards int
	maxBody     int
	pool        *connPool            // nil unless WithConnectionPool
	tel         *telemetry.Telemetry // nil-safe; see WithTelemetry
}

// NewClient returns a client ORB.
func NewClient(opts ...ClientOption) *ClientORB {
	c := &ClientORB{
		order:       cdr.BigEndian,
		dial:        net.DialTimeout,
		dialTimeout: 5 * time.Second,
		maxForwards: 8,
	}
	for _, o := range opts {
		o.applyClient(c)
	}
	return c
}

// Close releases the ORB's shared resources (the connection pool, when
// enabled); in-flight pooled invocations observe COMM_FAILURE. References
// with private connections are closed individually via ObjectRef.Close.
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
	return c.pool.activeConns()
}

// Stats counts the transparent recovery actions a reference performed;
// the experiment harness reads them to report retransmission overheads.
type Stats struct {
	Invocations     int
	Forwards        int // LOCATION_FORWARD retransmissions
	Retransmissions int // NEEDS_ADDRESSING_MODE retransmissions
}

// ObjectRef is a client-side reference to a (possibly replicated) CORBA
// object. With the default private connection, invocations on one ObjectRef
// are serialized, as with a single-threaded CORBA client; on an ORB built
// WithConnectionPool they proceed concurrently over the shared multiplexed
// transport.
type ObjectRef struct {
	orb *ClientORB

	mu     sync.Mutex
	tgt    target
	conn   net.Conn
	rd     *bufio.Reader // buffers reads from conn
	nextID uint32
	stats  Stats
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
	return &ObjectRef{orb: c, nextID: 1, tgt: resolveTarget(ior)}
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
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// Redirect rebinds the reference to a new IOR, dropping any existing
// connection. Reactive client strategies call it after a failure.
func (o *ObjectRef) Redirect(ior giop.IOR) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.dropConnLocked()
	o.tgt = resolveTarget(ior)
}

// Close releases the reference's connection.
func (o *ObjectRef) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.dropConnLocked()
	return nil
}

func (o *ObjectRef) dropConnLocked() {
	if o.conn != nil {
		_ = o.conn.Close()
		o.conn = nil
		o.rd = nil
	}
}

// connectLocked establishes the transport to the reference's current IOR.
// Connection refusal maps to TRANSIENT: the reference may be stale (the
// paper's cached-reference failure mode).
func (o *ObjectRef) connectLocked() error {
	if o.conn != nil {
		return nil
	}
	addr := o.tgt.addr
	if addr == "" {
		return giop.Transient(1, giop.CompletedNo)
	}
	conn, err := o.orb.dial("tcp", addr, o.orb.dialTimeout)
	if err != nil {
		return giop.Transient(2, giop.CompletedNo)
	}
	if o.orb.wrap != nil {
		conn = o.orb.wrap(conn)
	}
	o.conn = conn
	o.rd = bufio.NewReaderSize(conn, connReadBufSize)
	o.orb.tel.ConnOpened(addr)
	return nil
}

// Invoke performs one two-way CORBA invocation: marshal, send, await reply,
// and transparently handle LOCATION_FORWARD and NEEDS_ADDRESSING_MODE per
// the GIOP specification. Both retransmission paths are exactly the
// mechanics the paper's proactive schemes trigger.
func (o *ObjectRef) Invoke(op string, writeArgs func(*cdr.Encoder), readResult func(*cdr.Decoder) error) error {
	if o.orb.pool != nil {
		return o.invokePooled(op, writeArgs, readResult)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stats.Invocations++

	for attempt := 0; attempt <= o.orb.maxForwards; attempt++ {
		if err := o.connectLocked(); err != nil {
			return err
		}
		reqID := o.nextID
		o.nextID++
		msg := giop.EncodeRequestPooled(o.orb.order, giop.RequestHeader{
			RequestID:        reqID,
			ResponseExpected: true,
			ObjectKey:        o.tgt.key,
			Operation:        op,
		}, writeArgs)
		sentAt := time.Now()
		if err := o.sendLocked(msg, o.orb.maxBody); err != nil {
			o.dropConnLocked()
			return giop.CommFailure(10, giop.CompletedMaybe)
		}
		o.orb.tel.RequestSent(o.tgt.addr)

		// The reply header and the decoder d borrow mb; settleReply below
		// takes both over and releases them.
		rh, d, mb, err := o.readReplyLocked(reqID)
		if err != nil {
			o.dropConnLocked()
			return err
		}
		o.orb.tel.ReplyReceived(time.Since(sentAt))

		action, fwd, err := settleReply(rh.Status, op, d, mb, readResult)
		switch action {
		case replyDone:
			return err
		case replyBroken:
			o.dropConnLocked()
			return err
		case replyForward:
			// "The client ORB, on receiving this message, transparently
			// retransmits the client request to the new replica without
			// notifying the client application."
			o.dropConnLocked()
			o.tgt = resolveTarget(fwd)
			o.stats.Forwards++
			o.orb.tel.ForwardTaken(o.tgt.addr)
		case replyRetransmit:
			// "...causes the client-side ORB to retransmit its last request
			// over the new connection." The interceptor has already swapped
			// the underlying transport; we simply resend.
			o.stats.Retransmissions++
			o.orb.tel.Retransmitted(o.tgt.addr)
		}
	}
	o.dropConnLocked()
	return giop.CommFailure(11, giop.CompletedMaybe)
}

// sendLocked writes the message held in a pooled encoder straight from the
// encoder's buffer (fragmenting above maxBody when it is positive) and
// releases it: no connection layer keeps the bytes of a Write it has
// returned from.
func (o *ObjectRef) sendLocked(msg *cdr.Encoder, maxBody int) error {
	err := giop.WriteMessageFragmented(o.conn, msg.Bytes(), maxBody)
	msg.Release()
	return err
}

// replyAction is what an invocation does next after one decoded Reply.
type replyAction uint8

const (
	replyDone       replyAction = iota // over: the error (nil on success) goes to the application
	replyForward                       // LOCATION_FORWARD: rebind to the returned IOR and retransmit
	replyRetransmit                    // NEEDS_ADDRESSING_MODE: resend the same request
	replyBroken                        // the stream cannot be trusted any further; the error says why
)

// settleReply consumes the status-specific body of one Reply and decides the
// invocation's next step; both client transports call it. It owns d and mb
// (d borrows mb) and releases each exactly once on every path, before
// returning. What a forward or a broken stream means for the connection is
// the calling transport's business.
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
			return replyBroken, giop.IOR{}, fmt.Errorf("orb: corrupt LOCATION_FORWARD body: %w", err)
		}
		return replyForward, fwd, nil
	case giop.ReplyNeedsAddressingMode:
		return replyRetransmit, giop.IOR{}, nil
	default:
		return replyBroken, giop.IOR{}, &giop.SystemException{RepoID: giop.RepoInternal, Minor: 21, Completed: giop.CompletedMaybe}
	}
}

// InvokeOneWay sends a request without expecting a reply (a CORBA oneway
// operation). Delivery is best-effort, as the standard specifies.
func (o *ObjectRef) InvokeOneWay(op string, writeArgs func(*cdr.Encoder)) error {
	if o.orb.pool != nil {
		return o.oneWayPooled(op, writeArgs)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stats.Invocations++
	if err := o.connectLocked(); err != nil {
		return err
	}
	reqID := o.nextID
	o.nextID++
	if err := o.sendLocked(giop.EncodeRequestPooled(o.orb.order, giop.RequestHeader{
		RequestID:        reqID,
		ResponseExpected: false,
		ObjectKey:        o.tgt.key,
		Operation:        op,
	}, writeArgs), o.orb.maxBody); err != nil {
		o.dropConnLocked()
		return giop.CommFailure(14, giop.CompletedMaybe)
	}
	return nil
}

// Locate issues a GIOP LocateRequest for the reference's object. An
// OBJECT_FORWARD answer retargets the reference, mirroring the ORB's
// LOCATION_FORWARD handling.
func (o *ObjectRef) Locate() (giop.LocateStatus, error) {
	if o.orb.pool != nil {
		return o.locatePooled()
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.connectLocked(); err != nil {
		return 0, err
	}
	reqID := o.nextID
	o.nextID++
	// A LocateRequest is never fragmented (GIOP 1.1 fragments Requests and
	// Replies only).
	if err := o.sendLocked(giop.EncodeLocateRequestPooled(o.orb.order, giop.LocateRequestHeader{
		RequestID: reqID,
		ObjectKey: o.tgt.key,
	}), 0); err != nil {
		o.dropConnLocked()
		return 0, giop.CommFailure(15, giop.CompletedMaybe)
	}
	h, mb, err := giop.ReadMessagePooled(o.rd)
	if err != nil {
		o.dropConnLocked()
		return 0, giop.CommFailure(16, giop.CompletedMaybe)
	}
	status, fwd, err := settleLocateReply(h, mb)
	if err != nil {
		o.dropConnLocked()
		return 0, err
	}
	if fwd != nil {
		o.dropConnLocked()
		o.tgt = resolveTarget(*fwd)
		o.stats.Forwards++
	}
	return status, nil
}

// settleLocateReply decodes the answer to a LocateRequest for both client
// transports, releasing mb: the status and the OBJECT_FORWARD IOR (nil for
// every other status) are fully copied out of the body.
func settleLocateReply(h giop.Header, mb *giop.MsgBuf) (giop.LocateStatus, *giop.IOR, error) {
	defer mb.Release()
	if h.Type != giop.MsgLocateReply {
		return 0, nil, &giop.SystemException{RepoID: giop.RepoInternal, Minor: 23, Completed: giop.CompletedMaybe}
	}
	hdr, fwd, err := giop.DecodeLocateReply(h.Order, mb.Bytes())
	if err != nil {
		return 0, nil, fmt.Errorf("orb: corrupt locate reply: %w", err)
	}
	return hdr.Status, fwd, nil
}

// maxStaleReplies bounds how many mismatched-request-id replies one
// invocation will discard before declaring the stream desynced.
const maxStaleReplies = 32

// readReplyLocked reads messages until the Reply for reqID arrives and
// returns its header with a decoder positioned at the status-specific body;
// the caller owns the decoder and the pooled buffer both borrow. Read errors
// (EOF from a crashed server) surface as COMM_FAILURE, which takes "about
// 1.8 ms to register at the client" in the paper's reactive runs. After any
// error the stream is out of step and must be dropped.
func (o *ObjectRef) readReplyLocked(reqID uint32) (giop.ReplyHeader, *cdr.Decoder, *giop.MsgBuf, error) {
	for skips := 0; ; skips++ {
		h, mb, err := giop.ReadMessagePooled(o.rd)
		if err != nil {
			return giop.ReplyHeader{}, nil, nil, giop.CommFailure(12, giop.CompletedMaybe)
		}
		if h.Type != giop.MsgReply {
			mb.Release()
			if h.Type == giop.MsgCloseConnection {
				return giop.ReplyHeader{}, nil, nil, giop.CommFailure(13, giop.CompletedNo)
			}
			// LocateReply/MessageError are unexpected on this path.
			return giop.ReplyHeader{}, nil, nil, &giop.SystemException{RepoID: giop.RepoInternal, Minor: 22, Completed: giop.CompletedMaybe}
		}
		rh, d, err := giop.DecodeReply(h.Order, mb.Bytes()) // releases d itself on failure
		if err != nil {
			mb.Release()
			return giop.ReplyHeader{}, nil, nil, fmt.Errorf("orb: corrupt reply: %w", err)
		}
		if rh.RequestID == reqID {
			return rh, d, mb, nil
		}
		// A stale request id: the late reply to a request this reference
		// already retransmitted, or a wire-duplicated frame. GIOP replies
		// carry the id precisely so mismatched ones can be discarded; bound
		// the skips so a desynced stream still surfaces an error.
		d.Release()
		mb.Release()
		o.orb.tel.StaleReply()
		if skips >= maxStaleReplies {
			return giop.ReplyHeader{}, nil, nil, &giop.SystemException{RepoID: giop.RepoInternal, Minor: 20, Completed: giop.CompletedMaybe}
		}
	}
}
