// Package orb implements the miniature CORBA Object Request Broker this
// reproduction substitutes for TAO: a server ORB (listener + object adapter
// dispatching GIOP Requests to servants registered under persistent object
// keys) and a client ORB (connection management, request/reply, and the
// native handling of LOCATION_FORWARD and NEEDS_ADDRESSING_MODE replies that
// the paper's proactive schemes exploit).
//
// Both sides accept a connection-wrapper hook, which is where the MEAD
// interceptors interpose on the byte stream — the Go equivalent of the
// paper's library-interpositioning of socket(), read(), writev() et al.
// The ORB core itself stays "unmodified": it never looks at MEAD frames and
// has no knowledge of the recovery schemes.
package orb

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
	"mead/internal/telemetry"
)

// connReadBufSize sizes the buffered reader over each connection; one fill
// typically captures several small GIOP frames, collapsing the
// header-then-body read pairs into a single syscall. Sized to swallow a
// whole pipelined burst (64 in-flight small requests) in one fill.
const connReadBufSize = 16 << 10

// Servant is a CORBA object implementation: it receives an operation name
// with decoded-argument access and writes its result.
//
// Returning a *giop.SystemException maps to a SYSTEM_EXCEPTION reply;
// a *UserException maps to USER_EXCEPTION; any other error maps to a
// CORBA INTERNAL system exception.
type Servant interface {
	Invoke(op string, args *cdr.Decoder, result *cdr.Encoder) error
}

// ServantFunc adapts a function to the Servant interface.
type ServantFunc func(op string, args *cdr.Decoder, result *cdr.Encoder) error

// Invoke calls f.
func (f ServantFunc) Invoke(op string, args *cdr.Decoder, result *cdr.Encoder) error {
	return f(op, args, result)
}

// UserException is a CORBA user exception raised by a servant and surfaced
// to the client application.
type UserException struct {
	RepoID string
}

func (e *UserException) Error() string {
	return fmt.Sprintf("CORBA user exception %s", e.RepoID)
}

// ConnWrapper interposes on an accepted or dialed connection; it is the
// attachment point for MEAD interceptors.
type ConnWrapper func(net.Conn) net.Conn

// ErrServerClosed reports use of a closed server ORB.
var ErrServerClosed = errors.New("orb: server closed")

// ServerOption configures a ServerORB.
type ServerOption interface{ applyServer(*ServerORB) }

type serverOptionFunc func(*ServerORB)

func (f serverOptionFunc) applyServer(s *ServerORB) { f(s) }

// WithServerConnWrapper interposes w on every accepted connection.
func WithServerConnWrapper(w ConnWrapper) ServerOption {
	return serverOptionFunc(func(s *ServerORB) { s.wrap = w })
}

// WithServerWireWrapper interposes w on every accepted connection *beneath*
// the interceptor wrapper: w sees the raw socket bytes, and the conn wrapper
// (the MEAD interceptor) is layered on top of w's result. Its one setter is
// TestBurstCrossesReplicatedPathInOneWrite, which counts the writes that
// reach the socket; the chaos harness injects its faults on the client side.
func WithServerWireWrapper(w ConnWrapper) ServerOption {
	return serverOptionFunc(func(s *ServerORB) { s.wireWrap = w })
}

// WithServerTelemetry attaches the process telemetry: the ORB records a
// dispatch count and servant-latency histogram per executed request. The
// recording path adds no allocations; a nil Telemetry is equivalent to not
// setting the option.
func WithServerTelemetry(t *telemetry.Telemetry) ServerOption {
	return serverOptionFunc(func(s *ServerORB) { s.tel = t })
}

// WithConnClosedHook registers a callback invoked (with the remaining
// active-connection count, see ActiveConnections) whenever a client
// connection closes. The proactive fault-tolerance manager uses it to detect
// quiescence before rejuvenating a faulty replica.
func WithConnClosedHook(hook func(active int)) ServerOption {
	return serverOptionFunc(func(s *ServerORB) { s.onConnClosed = hook })
}

// ServerORB is the server-side ORB: listener plus object adapter.
type ServerORB struct {
	wrap         ConnWrapper
	wireWrap     ConnWrapper
	onConnClosed func(active int)
	served       atomic.Uint64
	tel          *telemetry.Telemetry // nil-safe; see WithServerTelemetry

	ln net.Listener
	wg sync.WaitGroup

	mu       sync.Mutex
	servants map[string]Servant
	conns    map[net.Conn]struct{}
	active   int // connections in conns that have carried a message
	closed   bool
}

// NewServer returns a server ORB.
func NewServer(opts ...ServerOption) *ServerORB {
	s := &ServerORB{
		servants: make(map[string]Servant),
		conns:    make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o.applyServer(s)
	}
	return s
}

// Register binds a servant to a persistent object key. It may be called
// before or after Listen.
func (s *ServerORB) Register(objectKey []byte, servant Servant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.servants[string(objectKey)] = servant
}

// Listen binds the ORB's endpoint (e.g. "127.0.0.1:0") without accepting.
func (s *ServerORB) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("orb: listen %s: %w", addr, err)
	}
	s.ln = ln
	return nil
}

// Addr returns the bound endpoint.
func (s *ServerORB) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// IORFor builds the IOR clients use to reach the object registered under
// objectKey on this ORB instance.
func (s *ServerORB) IORFor(typeID string, objectKey []byte) (giop.IOR, error) {
	addr := s.Addr()
	if addr == "" {
		return giop.IOR{}, errors.New("orb: IORFor before Listen")
	}
	return giop.NewIORForAddr(typeID, addr, objectKey)
}

// Start begins accepting connections. Listen must have been called.
func (s *ServerORB) Start() error {
	if s.ln == nil {
		return errors.New("orb: Start before Listen")
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
	return nil
}

// Served reports how many requests this ORB's servants have executed.
// At-most-once checks compare it against client-side success counts: a
// served count above the successes bounds the re-executions (COMPLETED_MAYBE
// retransmissions), and equality proves exactly-once for the run.
func (s *ServerORB) Served() uint64 { return s.served.Load() }

// ActiveConnections returns the number of live connections that have carried
// at least one message. A connection a client opened ahead of need and has
// not spoken on — the MEAD scheme's standby — has nobody waiting on it, so it
// does not keep a migrating replica from counting as quiescent.
func (s *ServerORB) ActiveConnections() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Crash abruptly terminates the ORB: the listener and every live connection
// are torn down immediately, exactly what a remote peer observes of a
// process crash. Used by the fault injector.
func (s *ServerORB) Crash() {
	s.shutdown()
}

// Close gracefully shuts the ORB down. With the recovery schemes having
// migrated all clients first, there is no observable difference from Crash
// at the transport level; the distinction is that Close is invoked at
// quiescence.
func (s *ServerORB) Close() error {
	s.shutdown()
	return nil
}

func (s *ServerORB) shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *ServerORB) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.wireWrap != nil {
			conn = s.wireWrap(conn)
		}
		if s.wrap != nil {
			conn = s.wrap(conn)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *ServerORB) serveConn(conn net.Conn) {
	spoke := false
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		if spoke {
			s.active--
		}
		active := s.active
		hook := s.onConnClosed
		s.mu.Unlock()
		if hook != nil {
			hook(active)
		}
	}()
	// Requests are decoded on this goroutine but dispatched concurrently,
	// so one slow servant no longer head-of-line-blocks the connection.
	// Replies are serialized through cw: GIOP allows interleaved replies
	// in any order (clients demultiplex by request id), but each reply's
	// frames must stay contiguous on the wire.
	//
	// Message bodies come from the pooled-buffer read path; the dispatch
	// goroutine owns each request's buffer (the decoded header and argument
	// stream borrow it) and releases it after the reply is written.
	rd := bufio.NewReaderSize(conn, connReadBufSize)
	cw := &connWriter{conn: conn}
	for {
		h, mb, err := giop.ReadMessagePooled(rd)
		if err != nil {
			return
		}
		if !spoke {
			spoke = true
			s.mu.Lock()
			s.active++
			s.mu.Unlock()
		}
		switch h.Type {
		case giop.MsgRequest:
			hdr, args, err := giop.DecodeRequest(h.Order, mb.Bytes())
			if err != nil {
				mb.Release()
				_ = cw.write(nil, giop.EncodeMessage(cdr.BigEndian, giop.MsgMessageError, nil))
				return
			}
			// serveConn's own wg slot keeps the counter above zero, so this
			// Add cannot race a Wait that already returned.
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.dispatchRequest(conn, cw, hdr, args, mb)
			}()
		case giop.MsgCloseConnection:
			mb.Release()
			return
		case giop.MsgLocateRequest:
			err := s.handleLocate(cw, h, mb.Bytes())
			mb.Release()
			if err != nil {
				return
			}
		case giop.MsgCancelRequest:
			// Accepted and ignored, as the specification permits: the reply
			// (if any) for the cancelled request is simply still delivered.
			mb.Release()
		default:
			// Reply-direction types and anything outside GIOP 1.1's numbering
			// are a protocol error on a server connection.
			mb.Release()
			_ = cw.write(nil, giop.EncodeMessage(cdr.BigEndian, giop.MsgMessageError, nil))
			return
		}
	}
}

// handleLocate answers GIOP LocateRequests: OBJECT_HERE for keys this
// adapter serves, UNKNOWN_OBJECT otherwise.
func (s *ServerORB) handleLocate(cw *connWriter, h giop.Header, body []byte) error {
	hdr, err := giop.DecodeLocateRequest(h.Order, body)
	if err != nil {
		return cw.write(nil, giop.EncodeMessage(cdr.BigEndian, giop.MsgMessageError, nil))
	}
	s.mu.Lock()
	_, known := s.servants[string(hdr.ObjectKey)]
	s.mu.Unlock()
	status := giop.LocateUnknownObject
	if known {
		status = giop.LocateObjectHere
	}
	reply := giop.EncodeLocateReply(cdr.BigEndian, giop.LocateReplyHeader{RequestID: hdr.RequestID, Status: status})
	if err := cw.write(nil, reply); err != nil {
		return fmt.Errorf("orb: write locate reply: %w", err)
	}
	return nil
}

// classifyServantError maps a servant's error to the reply it becomes. The
// errors.As targets escape, so they live here, off the path of a servant
// that returns nil.
func classifyServantError(err error) (giop.ReplyStatus, *giop.SystemException, *UserException) {
	var (
		sysEx  *giop.SystemException
		userEx *UserException
	)
	switch {
	case errors.As(err, &sysEx):
		return giop.ReplySystemException, sysEx, nil
	case errors.As(err, &userEx):
		return giop.ReplyUserException, nil, userEx
	default:
		return giop.ReplySystemException, &giop.SystemException{RepoID: giop.RepoInternal, Completed: giop.CompletedYes}, nil
	}
}

// dispatchRequest invokes the servant for one decoded Request and writes its
// reply (through the connection's coalescing writer). It runs on a per-request
// goroutine and owns mb, the pooled buffer backing hdr and args; both die
// when it returns. A write failure tears the connection down, which unblocks
// the reader.
func (s *ServerORB) dispatchRequest(conn net.Conn, cw *connWriter, hdr giop.RequestHeader, args *cdr.Decoder, mb *giop.MsgBuf) {
	defer mb.Release()
	defer args.Release()
	s.mu.Lock()
	servant := s.servants[string(hdr.ObjectKey)]
	s.mu.Unlock()

	var (
		status = giop.ReplyNoException
		sysEx  *giop.SystemException
		userEx *UserException
		result = cdr.GetEncoder(cdr.BigEndian)
	)
	defer result.Release()
	if servant == nil {
		status = giop.ReplySystemException
		sysEx = &giop.SystemException{
			RepoID:    giop.RepoObjectNotExist,
			Completed: giop.CompletedNo,
		}
	} else {
		s.served.Add(1)
		began := time.Now()
		err := servant.Invoke(hdr.Operation, args, result)
		s.tel.Dispatched(time.Since(began))
		if err != nil {
			status, sysEx, userEx = classifyServantError(err)
		}
	}
	if !hdr.ResponseExpected {
		return
	}

	// The reply stays in its pooled encoder: cw owns it from here and
	// releases it after the vectored write, skipping the exact-size copy
	// EncodeReply would make.
	reply := giop.EncodeReplyPooled(cdr.BigEndian, giop.ReplyHeader{RequestID: hdr.RequestID, Status: status},
		func(e *cdr.Encoder) {
			switch status {
			case giop.ReplyNoException:
				e.WriteRaw(result.Bytes())
			case giop.ReplySystemException:
				giop.EncodeSystemException(e, sysEx)
			case giop.ReplyUserException:
				e.WriteString(userEx.RepoID)
			}
		})
	if err := cw.writeEncoder(reply); err != nil {
		_ = conn.Close()
	}
}
