package orb

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
)

// ErrClientClosed reports use of a closed client ORB's connection pool.
var ErrClientClosed = errors.New("orb: client closed")

// connPool shares one multiplexed connection per IIOP "host:port" between
// every ObjectRef of one ClientORB. GIOP permits any number of outstanding
// requests per connection — replies carry the request id and may arrive in
// any order — so one TCP connection per replica suffices for an arbitrary
// number of concurrent invocations.
type connPool struct {
	orb *ClientORB

	mu     sync.Mutex
	conns  map[string]*muxConn
	closed bool
}

func newConnPool(orb *ClientORB) *connPool {
	return &connPool{orb: orb, conns: make(map[string]*muxConn)}
}

// get returns the live multiplexed connection to addr, dialing it if needed.
// Concurrent callers for the same address share a single dial.
func (p *connPool) get(addr string) (*muxConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClientClosed
	}
	mc := p.conns[addr]
	if mc == nil {
		mc = &muxConn{pool: p, addr: addr, pending: make(map[uint32]chan muxReply), nextID: 1}
		p.conns[addr] = mc
	}
	p.mu.Unlock()

	mc.dialOnce.Do(mc.dial)
	if mc.dialErr != nil {
		p.remove(mc)
		return nil, mc.dialErr
	}
	return mc, nil
}

// remove unregisters mc (if still current) so the next get() redials.
func (p *connPool) remove(mc *muxConn) {
	p.mu.Lock()
	if p.conns[mc.addr] == mc {
		delete(p.conns, mc.addr)
	}
	p.mu.Unlock()
}

// close tears down every pooled connection; in-flight requests observe
// COMM_FAILURE.
func (p *connPool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := make([]*muxConn, 0, len(p.conns))
	for _, mc := range p.conns {
		conns = append(conns, mc)
	}
	p.mu.Unlock()
	for _, mc := range conns {
		mc.fail(giop.CommFailure(17, giop.CompletedMaybe))
	}
}

// activeConns reports how many pooled connections are currently live
// (test/diagnostic hook).
func (p *connPool) activeConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// muxReply is one demultiplexed answer (Reply or LocateReply) delivered to
// the caller that issued the matching request id. The receiving caller takes
// ownership of mb (the pooled buffer holding the message body) and must
// Release it.
type muxReply struct {
	hdr giop.Header
	mb  *giop.MsgBuf
	err error
}

// muxConn is one shared connection with a demultiplexing reader goroutine.
// Writes are serialized by cw (each request's frames must stay
// contiguous); reads happen only on the readLoop goroutine, which routes
// each reply to the pending channel registered under its request id. This
// split keeps the interceptor Conn's read-side and write-side state each on
// a single goroutine.
type muxConn struct {
	pool *connPool
	addr string

	dialOnce sync.Once
	dialErr  error
	conn     net.Conn
	cw       *connWriter // serializes and coalesces frame writes

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan muxReply
	free    []chan muxReply // reply channels between calls, all empty
	closed  bool
	err     error // terminal error delivered to late arrivals
}

// dial establishes the transport (with the ORB's interceptor wrapper, as on
// the private-connection path) and starts the demultiplexing reader.
// Connection refusal maps to TRANSIENT: the pooled address may be stale (the
// paper's cached-reference failure mode).
func (m *muxConn) dial() {
	conn, err := m.pool.orb.dial("tcp", m.addr, m.pool.orb.dialTimeout)
	if err != nil {
		m.dialErr = giop.Transient(2, giop.CompletedNo)
		return
	}
	if m.pool.orb.wrap != nil {
		conn = m.pool.orb.wrap(conn)
	}
	m.conn = conn
	m.cw = &connWriter{conn: conn}
	m.pool.orb.tel.ConnOpened(m.addr)
	go m.readLoop()
}

// roundTrip allocates a request id, renders the message into a pooled
// encoder via build, hands it to the vectored writer, and blocks until the
// demultiplexer delivers the matching reply or the connection dies. Any
// number of callers may be in roundTrip concurrently.
//
// The reply channel comes from the connection's free list and goes back to
// it. Each registration sees exactly one send — from deliver or from fail,
// whichever takes the id out of pending under m.mu — and the one receive
// below, so the channel is empty again when its caller has its reply.
func (m *muxConn) roundTrip(build func(reqID uint32) *cdr.Encoder) (giop.Header, *giop.MsgBuf, error) {
	m.mu.Lock()
	if m.closed {
		err := m.err
		m.mu.Unlock()
		return giop.Header{}, nil, err
	}
	id := m.nextID
	m.nextID++
	var ch chan muxReply
	if n := len(m.free); n > 0 {
		ch, m.free = m.free[n-1], m.free[:n-1]
	} else {
		ch = make(chan muxReply, 1)
	}
	m.pending[id] = ch
	m.mu.Unlock()

	if err := m.cw.writeEncoder(build(id), m.pool.orb.maxBody); err != nil {
		// fail() settles every pending request, including ours.
		m.fail(giop.CommFailure(10, giop.CompletedMaybe))
	}
	r := <-ch
	m.mu.Lock()
	m.free = append(m.free, ch)
	m.mu.Unlock()
	return r.hdr, r.mb, r.err
}

// send writes a request that expects no reply (oneway). The id is still
// allocated from the shared counter so it cannot collide with two-way
// requests in flight.
func (m *muxConn) send(build func(reqID uint32) *cdr.Encoder) error {
	m.mu.Lock()
	if m.closed {
		err := m.err
		m.mu.Unlock()
		return err
	}
	id := m.nextID
	m.nextID++
	m.mu.Unlock()

	if err := m.cw.writeEncoder(build(id), m.pool.orb.maxBody); err != nil {
		m.fail(giop.CommFailure(14, giop.CompletedMaybe))
		return giop.CommFailure(14, giop.CompletedMaybe)
	}
	return nil
}

// readLoop is the per-connection demultiplexer: it reads logical GIOP
// messages (reassembling fragments) and routes Reply/LocateReply messages to
// the caller that issued the request id. Any stream-level failure settles
// every in-flight request with COMM_FAILURE — the reactive schemes' recovery
// logic then takes over, exactly as on the serialized path.
func (m *muxConn) readLoop() {
	rd := bufio.NewReaderSize(m.conn, connReadBufSize)
	for {
		h, mb, err := giop.ReadMessagePooled(rd)
		if err != nil {
			m.fail(giop.CommFailure(12, giop.CompletedMaybe))
			return
		}
		switch h.Type {
		case giop.MsgReply:
			id, err := giop.ReplyIDOf(h.Order, mb.Bytes())
			if err != nil {
				mb.Release()
				m.fail(&giop.SystemException{RepoID: giop.RepoInternal, Minor: 20, Completed: giop.CompletedMaybe})
				return
			}
			m.deliver(id, muxReply{hdr: h, mb: mb})
		case giop.MsgLocateReply:
			d := cdr.GetDecoder(mb.Bytes(), h.Order)
			id, err := d.ReadULong()
			d.Release()
			if err != nil {
				mb.Release()
				m.fail(&giop.SystemException{RepoID: giop.RepoInternal, Minor: 20, Completed: giop.CompletedMaybe})
				return
			}
			m.deliver(id, muxReply{hdr: h, mb: mb})
		case giop.MsgCloseConnection:
			mb.Release()
			m.fail(giop.CommFailure(13, giop.CompletedNo))
			return
		default:
			// MessageError (or anything else) means the peer rejected our
			// stream; nothing sensible can follow.
			mb.Release()
			m.fail(&giop.SystemException{RepoID: giop.RepoInternal, Minor: 22, Completed: giop.CompletedMaybe})
			return
		}
	}
}

// deliver hands the reply to the waiting caller, if any. Replies to unknown
// ids (e.g. a request that already failed) are dropped — and their pooled
// buffer recycled here, since no caller will ever Release it.
func (m *muxConn) deliver(id uint32, r muxReply) {
	m.mu.Lock()
	ch := m.pending[id]
	delete(m.pending, id)
	m.mu.Unlock()
	if ch != nil {
		ch <- r
		return
	}
	m.pool.orb.tel.StaleReply()
	r.mb.Release()
}

// pooledConn returns the shared connection to t's endpoint. A reference
// without a usable endpoint maps to TRANSIENT, as on the private-connection
// path.
func (o *ObjectRef) pooledConn(t target) (*muxConn, error) {
	if t.addr == "" {
		return nil, giop.Transient(1, giop.CompletedNo)
	}
	return o.orb.pool.get(t.addr)
}

// invokePooled is Invoke over the shared multiplexed transport. It holds no
// lock across the network round trip, so any number of goroutines may invoke
// through the same ObjectRef concurrently. The LOCATION_FORWARD /
// NEEDS_ADDRESSING_MODE retransmission loop mirrors the serialized path,
// except a redirect retargets only this reference's IOR — the shared
// connection stays up for other references still using it.
func (o *ObjectRef) invokePooled(op string, writeArgs func(*cdr.Encoder), readResult func(*cdr.Decoder) error) error {
	o.mu.Lock()
	o.stats.Invocations++
	tgt := o.tgt
	o.mu.Unlock()

	for attempt := 0; attempt <= o.orb.maxForwards; attempt++ {
		mc, err := o.pooledConn(tgt)
		if err != nil {
			return err
		}
		sentAt := time.Now()
		o.orb.tel.RequestSent(mc.addr)
		hdr, mb, err := mc.roundTrip(func(reqID uint32) *cdr.Encoder {
			return giop.EncodeRequestPooled(o.orb.order, giop.RequestHeader{
				RequestID:        reqID,
				ResponseExpected: true,
				ObjectKey:        tgt.key,
				Operation:        op,
			}, writeArgs)
		})
		if err != nil {
			return err
		}
		o.orb.tel.ReplyReceived(time.Since(sentAt))
		// roundTrip handed us ownership of mb; rh and d borrow it, and
		// settleReply takes both over.
		if hdr.Type != giop.MsgReply {
			mb.Release()
			return &giop.SystemException{RepoID: giop.RepoInternal, Minor: 22, Completed: giop.CompletedMaybe}
		}
		rh, d, err := giop.DecodeReply(hdr.Order, mb.Bytes())
		if err != nil {
			mb.Release()
			return fmt.Errorf("orb: corrupt reply: %w", err)
		}

		action, fwd, err := settleReply(rh.Status, op, d, mb, readResult)
		switch action {
		case replyDone, replyBroken:
			// A broken reply condemns only this invocation: the demultiplexer
			// framed it correctly, so the shared stream is still in step.
			return err
		case replyForward:
			tgt = resolveTarget(fwd)
			o.mu.Lock()
			o.tgt = tgt
			o.stats.Forwards++
			o.mu.Unlock()
			o.orb.tel.ForwardTaken(tgt.addr)
		case replyRetransmit:
			o.mu.Lock()
			o.stats.Retransmissions++
			o.mu.Unlock()
			o.orb.tel.Retransmitted(mc.addr)
		}
	}
	return giop.CommFailure(11, giop.CompletedMaybe)
}

// oneWayPooled is InvokeOneWay over the shared transport.
func (o *ObjectRef) oneWayPooled(op string, writeArgs func(*cdr.Encoder)) error {
	o.mu.Lock()
	o.stats.Invocations++
	tgt := o.tgt
	o.mu.Unlock()

	mc, err := o.pooledConn(tgt)
	if err != nil {
		return err
	}
	return mc.send(func(reqID uint32) *cdr.Encoder {
		return giop.EncodeRequestPooled(o.orb.order, giop.RequestHeader{
			RequestID:        reqID,
			ResponseExpected: false,
			ObjectKey:        tgt.key,
			Operation:        op,
		}, writeArgs)
	})
}

// locatePooled is Locate over the shared transport; LocateReplies are
// demultiplexed by request id exactly like Replies.
func (o *ObjectRef) locatePooled() (giop.LocateStatus, error) {
	o.mu.Lock()
	tgt := o.tgt
	o.mu.Unlock()

	mc, err := o.pooledConn(tgt)
	if err != nil {
		return 0, err
	}
	hdr, mb, err := mc.roundTrip(func(reqID uint32) *cdr.Encoder {
		return giop.EncodeLocateRequestPooled(o.orb.order, giop.LocateRequestHeader{
			RequestID: reqID,
			ObjectKey: tgt.key,
		})
	})
	if err != nil {
		return 0, giop.CommFailure(16, giop.CompletedMaybe)
	}
	status, fwd, err := settleLocateReply(hdr, mb)
	if err != nil {
		return 0, err
	}
	if fwd != nil {
		o.mu.Lock()
		o.tgt = resolveTarget(*fwd)
		o.stats.Forwards++
		o.mu.Unlock()
	}
	return status, nil
}

// fail terminates the connection once: it closes the transport, unregisters
// from the pool (so the next invocation redials), and settles every pending
// request with err.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.err = err
	pend := m.pending
	m.pending = nil
	m.mu.Unlock()

	if m.conn != nil {
		_ = m.conn.Close()
	}
	m.pool.remove(m)
	for _, ch := range pend {
		ch <- muxReply{err: err}
	}
}
