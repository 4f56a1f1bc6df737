package ftmgr

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mead/internal/cdr"
	"mead/internal/gcs"
	"mead/internal/giop"
	"mead/internal/interceptor"
	"mead/internal/telemetry"
)

// DefaultQueryTimeout is the paper's 10 ms window for the NEEDS_ADDRESSING
// scheme: "If the client does not receive a response from the server group
// within a specified time (we used a 10ms timeout), the blocking read() at
// the client-side times out, and a CORBA COMM_FAILURE exception is
// propagated up to the client application."
const DefaultQueryTimeout = 10 * time.Millisecond

// DialFunc opens a transport connection; the chaos harness substitutes
// netfault's injecting dialer (default net.DialTimeout).
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// ClientConfig parameterizes the client-side fault-tolerance manager.
type ClientConfig struct {
	// Scheme must be NeedsAddressing or MeadMessage; the LOCATION_FORWARD
	// scheme "does not require an Interceptor at the client because the
	// client ORB handles the retransmission through native CORBA
	// mechanisms", and the reactive baselines run without interception.
	Scheme Scheme
	// Member is the client's GCS connection (NEEDS_ADDRESSING only).
	Member *gcs.Member
	// Group is the server group queried for the new primary.
	Group string
	// QueryTimeout bounds the primary query (default 10 ms).
	QueryTimeout time.Duration
	// DialTimeout bounds redirection dials (default 2 s).
	DialTimeout time.Duration
	// Dial opens redirection connections (default net.DialTimeout); the
	// chaos harness injects here so even recovery dials cross the faulty
	// network.
	Dial DialFunc
	// Telemetry, when set, records fail-over notices, transport swaps, and
	// interceptor-driven retransmissions as recovery-trace events.
	Telemetry *telemetry.Telemetry
}

// ClientManager is the Proactive Fault-Tolerance Manager half embedded in
// the client-side interceptor.
type ClientManager struct {
	cfg       ClientConfig
	failovers atomic.Int64
}

// NewClientManager validates cfg and returns a ClientManager.
func NewClientManager(cfg ClientConfig) (*ClientManager, error) {
	switch cfg.Scheme {
	case NeedsAddressing:
		if cfg.Member == nil {
			return nil, errors.New("ftmgr: NEEDS_ADDRESSING client requires a GCS member")
		}
	case MeadMessage:
		// No GCS needed: redirection information arrives piggybacked.
	default:
		return nil, errors.New("ftmgr: client interceptor applies only to NEEDS_ADDRESSING and MEAD schemes")
	}
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = DefaultQueryTimeout
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = net.DialTimeout
	}
	return &ClientManager{cfg: cfg}, nil
}

// Failovers returns how many hand-offs this manager has performed.
func (cm *ClientManager) Failovers() int { return int(cm.failovers.Load()) }

// swapTo repoints c at conn, a transport to target, and records the swap. A
// fail-over counts only when the stream moves to another replica: a redial
// to the same one after a wire fault is not one.
func (cm *ClientManager) swapTo(c *interceptor.Conn, conn net.Conn, target string, failover bool) {
	c.SwapUnder(conn)
	cm.cfg.Telemetry.ConnSwapped(target)
	if failover {
		cm.failovers.Add(1)
	}
}

// lastRequest is the request a client connection sent last: the one a
// fabricated NEEDS_ADDRESSING_MODE reply makes the ORB retransmit. Both client
// hook sets keep one per connection.
type lastRequest struct {
	id    uint32
	order cdr.ByteOrder
	ok    bool
}

// note is the write hook of both client hook sets: it remembers each Request
// and passes every frame through.
func (r *lastRequest) note(_ *interceptor.Conn, f giop.Frame) ([]byte, error) {
	if f.Kind == giop.FrameGIOP && f.Header.Type == giop.MsgRequest {
		if id, err := giop.RequestIDOf(f.Header.Order, f.Body()); err == nil {
			*r = lastRequest{id: id, order: f.Header.Order, ok: true}
		}
	}
	return f.Raw, nil
}

// needsAddressing fabricates the NEEDS_ADDRESSING_MODE reply to the last
// request, or returns nil when none was sent.
func (r *lastRequest) needsAddressing() []byte {
	if !r.ok {
		return nil
	}
	return giop.EncodeReply(r.order, giop.ReplyHeader{
		RequestID: r.id,
		Status:    giop.ReplyNeedsAddressingMode,
	}, nil)
}

// WrapClientConn interposes the scheme's client-side interceptor on a
// dialed connection; pass it to orb.WithClientConnWrapper.
func (cm *ClientManager) WrapClientConn(conn net.Conn) net.Conn {
	switch cm.cfg.Scheme {
	case MeadMessage:
		return interceptor.New(conn, cm.meadHooks())
	case NeedsAddressing:
		return interceptor.New(conn, cm.needsAddrHooks())
	default:
		return conn
	}
}

// meadConn is the MEAD scheme's state for one client connection: what the
// hooks below hold between frames. The transports in it are shared between
// the hooks' goroutines, the standby's dial and Close, hence the mutex; the
// request bookkeeping is the hooks' own.
type meadConn struct {
	cm *ClientManager

	mu     sync.Mutex
	closed bool
	// standby is the connection being opened, or held open, to the replica
	// the last NOTICE frame named; nil when there is none.
	standby *standby
	// pending is the fail-over target's transport from the FAILOVER frame
	// until the reply behind it has been read, when it is swapped in.
	pending       net.Conn
	pendingTarget string

	last lastRequest
	// holding: the read hook put a transport in pending and has not yet
	// looked for it behind a reply. It is the read hook's alone, so a reply
	// with no hand-off in progress passes without taking mu.
	holding bool
}

// standby is one warm-up dial. conn and abandoned are guarded by the owning
// meadConn's mu; done is closed once the dial has returned and conn is set.
type standby struct {
	addr      string
	done      chan struct{}
	conn      net.Conn // nil until dialed, if the dial failed, and once taken
	abandoned bool     // nobody will take conn: whoever holds it closes it
}

// warm starts opening a connection to addr off the reading goroutine, so
// that a later FAILOVER frame naming addr finds it open. A standby for
// another address is given up.
func (mc *meadConn) warm(addr string) {
	mc.mu.Lock()
	if mc.closed || (mc.standby != nil && mc.standby.addr == addr) {
		mc.mu.Unlock()
		return
	}
	s := &standby{addr: addr, done: make(chan struct{})}
	mc.abandonLocked(mc.standby)
	mc.standby = s
	mc.mu.Unlock()

	go func() {
		conn, err := mc.cm.cfg.Dial("tcp", addr, mc.cm.cfg.DialTimeout)
		mc.mu.Lock()
		ready := err == nil && !s.abandoned
		if ready {
			s.conn = conn
		}
		mc.mu.Unlock()
		close(s.done)
		switch {
		case ready:
			mc.cm.cfg.Telemetry.StandbyReady(addr)
		case err == nil:
			_ = conn.Close()
		}
	}()
}

// abandonLocked gives s up: its connection is closed behind the caller now,
// or by its dial when that returns. Callers hold mc.mu, so the close must not
// run here.
func (mc *meadConn) abandonLocked(s *standby) {
	if s == nil {
		return
	}
	s.abandoned = true
	if s.conn != nil {
		interceptor.CloseBehind(s.conn)
		s.conn = nil
	}
}

// obtain is the one place the hand-off gets its transport to addr from: the
// standby when one was warmed for addr, waiting for its dial if that is still
// in flight, and otherwise — no standby, one for another address (given up
// here), or one whose dial failed — the paper's own dial.
func (mc *meadConn) obtain(addr string) (net.Conn, error) {
	mc.mu.Lock()
	s := mc.standby
	mc.standby = nil
	if s != nil && s.addr != addr {
		mc.abandonLocked(s)
		s = nil
	}
	mc.mu.Unlock()
	if s != nil {
		<-s.done
		mc.mu.Lock()
		conn := s.conn
		s.conn = nil
		mc.mu.Unlock()
		if conn != nil {
			return conn, nil
		}
	}
	return mc.cm.cfg.Dial("tcp", addr, mc.cm.cfg.DialTimeout)
}

// hold keeps conn as the transport to swap in behind the next reply; a
// target it replaces is closed behind the reading goroutine.
func (mc *meadConn) hold(conn net.Conn, target string) {
	mc.mu.Lock()
	if mc.closed {
		mc.mu.Unlock()
		_ = conn.Close()
		return
	}
	old := mc.pending
	mc.pending, mc.pendingTarget = conn, target
	mc.mu.Unlock()
	if old != nil {
		interceptor.CloseBehind(old)
	}
}

// takePending hands over the held fail-over transport, if there is one.
func (mc *meadConn) takePending() (net.Conn, string) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	conn := mc.pending
	mc.pending = nil
	return conn, mc.pendingTarget
}

// release closes what was dialed for this connection and never swapped in;
// the interceptor calls it when the connection is closed.
func (mc *meadConn) release() {
	mc.mu.Lock()
	mc.closed = true
	pending := mc.pending
	mc.pending = nil
	mc.abandonLocked(mc.standby)
	mc.standby = nil
	mc.mu.Unlock()
	if pending != nil {
		_ = pending.Close()
	}
}

// repair mends the stream after a wire fault killed the connection:
// prefer the already-dialed migration target (the fail-over notice beat
// the fault), otherwise reconnect to the same replica — a wire-level
// fault, unlike a crash, leaves the primary alive and reachable. It
// reports the address the stream now points at.
func (mc *meadConn) repair(c *interceptor.Conn) (string, bool) {
	cm := mc.cm
	if pending, target := mc.takePending(); pending != nil {
		cm.swapTo(c, pending, target, true)
		return target, true
	}
	addr := c.Under().RemoteAddr()
	if addr == nil {
		return "", false
	}
	target := addr.String()
	newConn, err := cm.cfg.Dial("tcp", target, cm.cfg.DialTimeout)
	if err != nil {
		return "", false
	}
	cm.swapTo(c, newConn, target, false)
	return target, true
}

// meadHooks implement Section 4.3 at the client: filter MEAD frames out of
// the reply stream, redirect the connection to the replica a fail-over frame
// names (dup2-equivalent swap), and pass the regular GIOP reply up to the
// unmodified ORB. A notice frame ahead of it lets the connection to that
// replica be opened before the hand-off instead of inside it; what a hand-off
// leaves behind (the old transport, a replaced target, a given-up standby) is
// closed behind the reading goroutine, not in front of the reply.
func (cm *ClientManager) meadHooks() interceptor.Hooks {
	mc := &meadConn{cm: cm}
	return interceptor.Hooks{
		OnWriteFrame: mc.last.note,
		OnReadFrame: func(c *interceptor.Conn, f giop.Frame) ([]byte, error) {
			switch f.Kind {
			case giop.FrameMEAD:
				if f.Mead.Type != giop.MeadFailover && f.Mead.Type != giop.MeadNotice {
					return nil, nil // consume unknown MEAD frames silently
				}
				addr, _, err := giop.DecodeMeadFailover(f.Mead.Payload)
				if err != nil {
					return nil, nil
				}
				if f.Mead.Type == giop.MeadNotice {
					mc.warm(addr)
					return nil, nil
				}
				newConn, err := mc.obtain(addr)
				if err != nil {
					// Migration target unreachable: ignore the notice and
					// keep using the (still live) failing replica.
					return nil, nil
				}
				mc.hold(newConn, addr)
				mc.holding = true
				cm.cfg.Telemetry.FailoverReceived(addr)
				return nil, nil
			case giop.FrameGIOP:
				if f.Header.Type == giop.MsgReply && mc.holding {
					mc.holding = false
					if pending, target := mc.takePending(); pending != nil {
						// The failing replica's final reply is fully buffered;
						// repoint the stream before handing the reply up, so
						// the next request already flows to the new replica.
						cm.swapTo(c, pending, target, true)
					}
				}
				return f.Raw, nil
			default:
				return f.Raw, nil
			}
		},
		OnReadEOF: func(c *interceptor.Conn, readErr error) ([]byte, bool) {
			// The stream died without (or before) a fail-over notice — a
			// wire fault rather than the managed migration. Repair the
			// transport and fabricate NEEDS_ADDRESSING so the unmodified
			// ORB retransmits the in-flight request.
			fabricated := mc.last.needsAddressing()
			if fabricated == nil {
				return nil, false
			}
			_, ok := mc.repair(c)
			return fabricated, ok
		},
		OnWriteError: func(c *interceptor.Conn, writeErr error) bool {
			// The request frame itself failed to leave: repair and let the
			// interceptor rewrite the frame on the fresh transport. The ORB
			// never sees this resend, so the retransmit is recorded here.
			target, ok := mc.repair(c)
			if ok {
				cm.cfg.Telemetry.Retransmitted(target)
			}
			return ok
		},
		OnClose: func(*interceptor.Conn) { mc.release() },
	}
}

// needsAddrHooks implement Section 4.2: detect abrupt server failure as EOF
// on the blocking read, ask the replica group for the new primary within
// the query timeout, redirect the connection, and fabricate a
// NEEDS_ADDRESSING_MODE reply that makes the client ORB retransmit.
func (cm *ClientManager) needsAddrHooks() interceptor.Hooks {
	var last lastRequest
	return interceptor.Hooks{
		OnWriteFrame: last.note,
		OnReadEOF: func(c *interceptor.Conn, readErr error) ([]byte, bool) {
			fabricated := last.needsAddressing()
			if fabricated == nil {
				return nil, false
			}
			_, ok := cm.redirectToPrimary(c) // on a timeout COMM_FAILURE reaches the app
			return fabricated, ok
		},
		OnWriteError: func(c *interceptor.Conn, writeErr error) bool {
			// The request died on the way out (e.g. a mid-frame reset).
			// Redirect to the current primary and resume: the interceptor
			// rewrites the whole frame, so no fabricated reply is needed —
			// and the ORB never sees the resend, so it is recorded here.
			target, ok := cm.redirectToPrimary(c)
			if ok {
				cm.cfg.Telemetry.Retransmitted(target)
			}
			return ok
		},
	}
}

// redirectToPrimary performs the NEEDS_ADDRESSING recovery: query the group
// for the agreed-upon primary within the query timeout, dial it, and swap
// the interceptor's transport over. It reports the primary's address.
func (cm *ClientManager) redirectToPrimary(c *interceptor.Conn) (string, bool) {
	primary, ok := cm.queryPrimary()
	if !ok {
		return "", false
	}
	newConn, err := cm.cfg.Dial("tcp", primary.Addr, cm.cfg.DialTimeout)
	if err != nil {
		return "", false
	}
	cm.swapTo(c, newConn, primary.Addr, true)
	return primary.Addr, true
}

// queryPrimary multicasts a primary query to the server group and waits for
// the first PrimaryIs answer within the query timeout. "At this point,
// there is no agreed-upon primary replica to service the client request" is
// the failure case the paper observed in 25% of server failures.
func (cm *ClientManager) queryPrimary() (PrimaryIs, bool) {
	member := cm.cfg.Member
	// Drain stale answers from previous queries.
	for {
		select {
		case <-member.Deliveries():
			continue
		default:
		}
		break
	}
	if err := member.Multicast(cm.cfg.Group, EncodeQueryPrimary(QueryPrimary{ReplyTo: member.Name()})); err != nil {
		return PrimaryIs{}, false
	}
	deadline := time.NewTimer(cm.cfg.QueryTimeout)
	defer deadline.Stop()
	for {
		select {
		case d, ok := <-member.Deliveries():
			if !ok {
				return PrimaryIs{}, false
			}
			if d.Kind != gcs.DeliverPrivate {
				continue
			}
			msg, err := DecodeMessage(d.Payload)
			if err != nil {
				continue
			}
			if p, ok := msg.(PrimaryIs); ok {
				return p, true
			}
		case <-deadline.C:
			return PrimaryIs{}, false
		}
	}
}
