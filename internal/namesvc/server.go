// Package namesvc provides the CORBA Naming Service substitute used by the
// reactive recovery baselines: replicas bind their stringified IORs under
// "<service>/<replica>" names, and clients resolve them (paying a visible
// round trip, which is the "spike" the paper measures when reactive clients
// re-resolve references after a failure).
//
// Bindings survive a replica's crash until the restarted replica rebinds:
// that is precisely what creates the stale references that cause the cached
// reactive scheme's TRANSIENT exceptions in the paper (Section 5.2.1).
package namesvc

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"mead/internal/cdr"
	"mead/internal/frame"
	"mead/internal/giop"
	"mead/internal/telemetry"
)

// Wire opcodes.
const (
	opBind    byte = 1
	opRebind  byte = 2
	opResolve byte = 3
	opUnbind  byte = 4
	opList    byte = 5
)

// Reply statuses.
const (
	stOK       byte = 1
	stNotFound byte = 2
	stError    byte = 3
)

// Service errors.
var (
	// ErrNotFound reports an unbound name.
	ErrNotFound = errors.New("namesvc: name not found")
	// ErrAlreadyBound reports a bind over an existing name (use Rebind).
	ErrAlreadyBound = errors.New("namesvc: name already bound")
	// ErrClosed reports use of a closed server or client.
	ErrClosed = errors.New("namesvc: closed")
)

type binding struct {
	name string
	ior  string // stringified IOR
	seq  int    // original registration order, stable across rebinds
}

// Server is the naming service daemon.
type Server struct {
	ln  net.Listener
	wg  sync.WaitGroup
	tel *telemetry.Telemetry // nil-safe; see SetTelemetry

	mu       sync.Mutex
	bindings map[string]*binding
	nextSeq  int
	conns    map[net.Conn]struct{} // client sessions being served
	closed   bool
}

// idleTimeout is how long the server keeps a session that sends nothing. It
// guards against clients that vanish without closing; a live client whose
// session it takes away redials on its next call (see Client).
const idleTimeout = 30 * time.Second

// NewServer returns an unstarted naming service.
func NewServer() *Server {
	return &Server{bindings: make(map[string]*binding), conns: make(map[net.Conn]struct{})}
}

// SetTelemetry attaches the process telemetry: every naming operation served
// is counted, and so are the sessions open. Call before Start.
func (s *Server) SetTelemetry(t *telemetry.Telemetry) { s.tel = t }

// Start begins serving on addr (e.g. "127.0.0.1:0").
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("namesvc: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
	return nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server and closes every session, idle or not.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		_ = conn.Close() // its serveConn wakes up and untracks it
	}
	s.mu.Unlock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.wg.Wait()
	return nil
}

// track registers an accepted connection for Close to find; it refuses one
// that was accepted while the server was closing.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.tel.NamingSession(+1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.tel.NamingSession(-1)
}

// bindLocked implements bind/rebind. Rebinding preserves the original
// registration sequence so "next replica" ordering is stable across
// restarts.
func (s *Server) bind(name, ior string, rebind bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.bindings[name]; ok {
		if !rebind {
			return ErrAlreadyBound
		}
		existing.ior = ior
		return nil
	}
	s.bindings[name] = &binding{name: name, ior: ior, seq: s.nextSeq}
	s.nextSeq++
	return nil
}

func (s *Server) resolve(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bindings[name]
	if !ok {
		return "", false
	}
	return b.ior, true
}

func (s *Server) unbind(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.bindings[name]; !ok {
		return false
	}
	delete(s.bindings, name)
	return true
}

// list returns (name, ior) pairs whose names start with prefix, in
// registration order.
func (s *Server) list(prefix string) []binding {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []binding
	for _, b := range s.bindings {
		if strings.HasPrefix(b.name, prefix) {
			out = append(out, *b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	// The reader's buffer and one pooled reply encoder serve the whole
	// loop: handle copies every field it keeps (names, IOR strings) out of
	// the request, and each reply leaves in one write.
	rd := frame.NewReader(conn)
	reply := cdr.GetEncoder(cdr.BigEndian)
	defer reply.Release()
	for {
		_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
		req, err := rd.Next()
		if err != nil {
			return
		}
		reply.Reset(cdr.BigEndian)
		frame.Begin(reply)
		if err := s.handle(req, reply); err != nil {
			return
		}
		if err := frame.Write(conn, reply); err != nil {
			return
		}
	}
}

// handle serves one request, writing the reply payload into e.
func (s *Server) handle(req []byte, e *cdr.Encoder) error {
	d := cdr.NewDecoder(req, cdr.BigEndian)
	op, err := d.ReadOctet()
	if err != nil {
		return err
	}
	s.tel.NameOp()
	switch op {
	case opBind, opRebind:
		name, err := d.ReadString()
		if err != nil {
			return err
		}
		ior, err := d.ReadString()
		if err != nil {
			return err
		}
		if err := s.bind(name, ior, op == opRebind); err != nil {
			e.WriteOctet(stError)
			e.WriteString(err.Error())
		} else {
			e.WriteOctet(stOK)
		}
	case opResolve:
		name, err := d.ReadString()
		if err != nil {
			return err
		}
		if ior, ok := s.resolve(name); ok {
			e.WriteOctet(stOK)
			e.WriteString(ior)
		} else {
			e.WriteOctet(stNotFound)
		}
	case opUnbind:
		name, err := d.ReadString()
		if err != nil {
			return err
		}
		if s.unbind(name) {
			e.WriteOctet(stOK)
		} else {
			e.WriteOctet(stNotFound)
		}
	case opList:
		prefix, err := d.ReadString()
		if err != nil {
			return err
		}
		entries := s.list(prefix)
		e.WriteOctet(stOK)
		e.WriteULong(uint32(len(entries)))
		for _, b := range entries {
			e.WriteString(b.name)
			e.WriteString(b.ior)
		}
	default:
		return fmt.Errorf("namesvc: unknown op %d", op)
	}
	return nil
}

// Entry is one (name, IOR) binding as returned by List.
type Entry struct {
	Name string
	IOR  giop.IOR
}
