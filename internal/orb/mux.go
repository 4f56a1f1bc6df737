package orb

import (
	"bufio"
	"sync"

	"mead/internal/cdr"
	"mead/internal/giop"
)

// muxReply is one answer (Reply or LocateReply) matched to the caller that
// issued its request id; the caller takes ownership of mb (the pooled buffer
// holding the body) and must Release it. With takeOver set it is no answer at
// all: it hands its receiver the read side.
type muxReply struct {
	hdr      giop.Header
	mb       *giop.MsgBuf
	err      error
	takeOver bool
}

// muxConn is the client ORB's one transport: the connection under an
// ObjectRef, whether one reference owns it or the references of a
// WithConnectionPool ORB share it. Any number of requests may be registered on
// it at once; their answers are matched by request id.
//
// Writes go through cw, which keeps each request's frames contiguous. Reads
// have no goroutine of their own: the read side (rd, and the interceptor Conn's
// read state beneath it) belongs to one waiting caller at a time. A caller that
// registers while nobody is reading takes it, reads and delivers until its own
// answer arrives, and hands it to another waiting caller as it leaves — inside
// a critical section of mu, so each holder sees what the last one left. A lone
// caller reads its own reply with no goroutine switch; N callers still share
// one buffered read.
type muxConn struct {
	orb  *ClientORB
	addr string

	holders int // references holding a shared connection; guarded by orb.pool.mu

	dialOnce sync.Once
	dialErr  error
	rd       *bufio.Reader // the read side
	cw       connWriter    // serializes and coalesces frame writes

	mu       sync.Mutex
	nextID   uint32
	pending  map[uint32]chan muxReply // two-way requests awaiting their answer
	free     []chan muxReply          // reply channels between calls, all empty
	inflight int                      // requests registered and not yet left
	reader   chan muxReply            // the reply channel of the caller with the read side
	retired  bool                     // nobody holds it: closes once inflight is 0
	err      error                    // what it died of; nil while it is usable
}

func newMuxConn(orb *ClientORB, addr string) *muxConn {
	return &muxConn{orb: orb, addr: addr, pending: make(map[uint32]chan muxReply), nextID: 1}
}

// request is one request registered on a muxConn.
type request struct {
	id     uint32
	ch     chan muxReply // where its answer arrives; nil for a oneway
	reader bool          // registered while nobody was reading: its caller reads
}

// dial establishes the transport, with the ORB's interceptor wrapper on it.
// Connection refusal maps to TRANSIENT: the address may be stale (the paper's
// cached-reference failure mode).
func (m *muxConn) dial() {
	conn, err := m.orb.dial("tcp", m.addr, m.orb.dialTimeout)
	if err != nil {
		m.dialErr = giop.Transient(2, giop.CompletedNo)
		return
	}
	if m.orb.wrap != nil {
		conn = m.orb.wrap(conn)
	}
	m.rd = bufio.NewReaderSize(conn, connReadBufSize)
	m.cw.conn = conn
	m.cw.solo = m.orb.pool == nil
	m.orb.tel.ConnOpened(m.addr)
}

// register allocates the next request id and, for a two-way request, the
// channel its answer arrives on, from the free list leave returns it to. A
// caller without the read side is sent exactly one answer or error — by deliver
// or by fail, whichever takes its id out of pending under mu; the one with it
// reads its answer off the wire and is sent nothing.
func (m *muxConn) register(twoWay bool) (request, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return request{}, m.err
	}
	rq := request{id: m.nextID}
	m.nextID++
	m.inflight++
	if !twoWay {
		return rq, nil
	}
	if n := len(m.free); n > 0 {
		rq.ch = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		rq.ch = make(chan muxReply, 1)
	}
	m.pending[rq.id] = rq.ch
	if m.reader == nil {
		m.reader = rq.ch
		rq.reader = true
	}
	return rq, nil
}

// roundTrip renders rq's message into a pooled encoder via build, writes it,
// and returns the matching answer or the error the connection died of. Of the
// callers in roundTrip at once, the one with the read side reads for them all.
func (m *muxConn) roundTrip(rq request, build func(reqID uint32) *cdr.Encoder) (giop.Header, *giop.MsgBuf, error) {
	if err := m.cw.writeEncoder(build(rq.id), m.orb.maxBody); err != nil {
		m.fail(giop.CommFailure(10, giop.CompletedMaybe))
	}
	r := muxReply{takeOver: rq.reader}
	if !rq.reader {
		r = <-rq.ch
	}
	reader := r.takeOver
	if reader {
		var err error
		if r, err = m.readUntil(rq.id); err != nil {
			r.err = m.fail(err)
		}
	}
	m.leave(rq, reader)
	return r.hdr, r.mb, r.err
}

// send writes a request that expects no reply (oneway). Its id comes from the
// same counter, so it cannot collide with a two-way request in flight.
func (m *muxConn) send(rq request, build func(reqID uint32) *cdr.Encoder) error {
	err := m.cw.writeEncoder(build(rq.id), m.orb.maxBody)
	if err != nil {
		err = giop.CommFailure(14, giop.CompletedMaybe)
		m.fail(err)
	}
	m.leave(rq, false)
	return err
}

// readUntil is what the holder of the read side does: read logical GIOP
// messages (reassembling fragments), hand each Reply/LocateReply to the caller
// that issued its request id, and stop at the answer to id or at an error,
// which the whole stream dies of.
func (m *muxConn) readUntil(id uint32) (muxReply, error) {
	for {
		h, mb, err := giop.ReadMessagePooled(m.rd)
		if err != nil {
			// EOF from a crashed server surfaces here; it takes "about 1.8 ms
			// to register at the client" in the paper's reactive runs.
			return muxReply{}, giop.CommFailure(12, giop.CompletedMaybe)
		}
		got, err := answeredID(h, mb.Bytes())
		if err != nil {
			mb.Release()
			return muxReply{}, err
		}
		if got == id {
			return muxReply{hdr: h, mb: mb}, nil
		}
		m.deliver(got, muxReply{hdr: h, mb: mb})
	}
}

// answeredID extracts the id of the request an inbound message answers.
func answeredID(h giop.Header, body []byte) (id uint32, err error) {
	switch h.Type {
	case giop.MsgReply:
		id, err = giop.ReplyIDOf(h.Order, body)
	case giop.MsgLocateReply:
		d := cdr.GetDecoder(body, h.Order)
		id, err = d.ReadULong()
		d.Release()
	case giop.MsgCloseConnection:
		return 0, giop.CommFailure(13, giop.CompletedNo)
	default:
		// MessageError (or anything else): the peer rejected our stream.
		return 0, &giop.SystemException{RepoID: giop.RepoInternal, Minor: 22, Completed: giop.CompletedMaybe}
	}
	if err != nil {
		return 0, &giop.SystemException{RepoID: giop.RepoInternal, Minor: 20, Completed: giop.CompletedMaybe}
	}
	return id, nil
}

// deliver hands the reply to the waiting caller, if any. A reply to an
// unknown id — the late answer to a request that already failed, or a
// wire-duplicated frame — is dropped, and its pooled buffer recycled here,
// since no caller will ever Release it.
func (m *muxConn) deliver(id uint32, r muxReply) {
	m.mu.Lock()
	ch := m.pending[id]
	delete(m.pending, id)
	m.mu.Unlock()
	if ch != nil {
		ch <- r
		return
	}
	m.orb.tel.StaleReply()
	r.mb.Release()
}

// leave takes rq off the connection in one critical section: its id out of
// pending (where it still is if its caller read the answer itself), its
// channel back on the free list, and the read side, if this caller had it, on
// to one still waiting — through that caller's reply channel, which is empty:
// its id is pending, so nothing was sent there, and only the holder hands the
// read side on. The last request off a connection nobody holds closes it.
func (m *muxConn) leave(rq request, reader bool) {
	m.mu.Lock()
	m.inflight--
	delete(m.pending, rq.id)
	if rq.ch != nil {
		m.free = append(m.free, rq.ch)
	}
	if reader {
		m.reader = nil
		for _, ch := range m.pending {
			ch <- muxReply{takeOver: true}
			m.reader = ch
			break
		}
	}
	idle := m.retired && m.inflight == 0
	m.mu.Unlock()
	if idle {
		m.fail(giop.CommFailure(17, giop.CompletedNo))
	}
}

// release takes one reference's hold off the connection. Once nobody holds it,
// it closes as soon as no request is left on it: one registered before its
// reference let go still gets its answer.
func (m *muxConn) release() {
	if p := m.orb.pool; p != nil {
		p.mu.Lock()
		m.holders--
		if m.holders > 0 {
			p.mu.Unlock()
			return
		}
		p.removeLocked(m) // no later acquire can find it
		p.mu.Unlock()
	}
	m.mu.Lock()
	m.retired = true
	idle := m.inflight == 0
	m.mu.Unlock()
	if idle {
		m.fail(giop.CommFailure(17, giop.CompletedNo))
	}
}

// fail terminates the connection once: it closes the transport, unregisters
// from the pool (so the next acquire redials), and settles every pending
// request with err — but the one whose caller has the read side and finds out
// from the transport. It returns what the connection died of: err or, if it
// was dead already, the earlier error.
func (m *muxConn) fail(err error) error {
	m.mu.Lock()
	if m.err != nil {
		defer m.mu.Unlock()
		return m.err
	}
	m.err = err
	pend, reader := m.pending, m.reader
	m.pending = nil
	m.mu.Unlock()

	// A connection not dialed yet never will be; one being dialed is waited for.
	m.dialOnce.Do(func() { m.dialErr = err })
	if m.cw.conn != nil {
		_ = m.cw.conn.Close()
	}
	if p := m.orb.pool; p != nil {
		p.mu.Lock()
		p.removeLocked(m)
		p.mu.Unlock()
	}
	for _, ch := range pend {
		if ch != reader {
			ch <- muxReply{err: err}
		}
	}
	return err
}
