package orb

import (
	"errors"
	"sync"

	"mead/internal/giop"
)

// ErrClientClosed reports use of a closed client ORB's connection pool.
var ErrClientClosed = errors.New("orb: client closed")

// connPool shares one connection per IIOP "host:port" between every
// ObjectRef of one ClientORB (see ClientORB.acquire). GIOP permits any number
// of outstanding requests per connection — replies carry the request id and
// may arrive in any order — so one TCP connection per replica suffices for an
// arbitrary number of concurrent invocations. The references holding a
// connection are counted and the last to let go closes it (muxConn.release):
// no goroutine is resident on it to notice that a forward left it behind.
type connPool struct {
	mu    sync.Mutex
	conns map[string]*muxConn // nil once closed
}

// removeLocked unregisters mc (if still current) so the next acquire redials.
func (p *connPool) removeLocked(mc *muxConn) {
	if p.conns[mc.addr] == mc {
		delete(p.conns, mc.addr)
	}
}

// close tears down every pooled connection; in-flight requests observe
// COMM_FAILURE.
func (p *connPool) close() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil // reads as empty, and acquire adds nothing to a closed pool
	p.mu.Unlock()
	for _, mc := range conns {
		mc.fail(giop.CommFailure(17, giop.CompletedMaybe))
	}
}
