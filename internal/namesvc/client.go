package namesvc

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"mead/internal/cdr"
	"mead/internal/frame"
	"mead/internal/giop"
	"mead/internal/telemetry"
)

// Client is a session with the naming service: the first call dials, every
// later call is one write and one read on that connection, and Close
// releases it — as a CORBA client holds its NamingContext reference while
// the ORB keeps the connection behind it open. Re-resolving after a failure
// therefore costs the reactive schemes a round trip, not a connection
// set-up. Calls are safe for concurrent use and run one at a time.
//
// The server closes a session that has been idle for idleTimeout, and a
// restarted server knows nothing of the old one's sessions. Either way the
// next call finds its connection dead before any reply byte arrives; it then
// dials once more and sends the request again. Rebind, Resolve, Unbind and
// List are resent, Bind is not (a first copy that did execute would make
// the second fail), and an error on a connection this call dialed itself is
// returned as it is, so a dead server costs one attempt.
type Client struct {
	addr    string
	timeout time.Duration
	dial    func(network, addr string, timeout time.Duration) (net.Conn, error) // net.DialTimeout; tests count through it
	tel     *telemetry.Telemetry                                                // nil-safe; see SetTelemetry

	mu     sync.Mutex // one request in flight; guards the fields below
	conn   net.Conn   // nil until the first call and after an error
	rd     *frame.Reader
	closed bool
}

// NewClient returns a client for the naming service at addr. It connects on
// first use.
func NewClient(addr string) *Client {
	return &Client{addr: addr, timeout: 5 * time.Second, dial: net.DialTimeout}
}

// SetTelemetry attaches the process telemetry: every connection the client
// dials is counted. Call before the first use.
func (c *Client) SetTelemetry(t *telemetry.Telemetry) { c.tel = t }

// Close releases the session's connection. Later calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return c.dropLocked()
}

func (c *Client) dropLocked() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.rd = nil, nil
	return err
}

// callLocked sends the request frame begun in req in one write and returns
// a decoder on the reply frame, which one read normally delivers. The reply
// lives in the session reader's buffer: the caller decodes it before it
// releases c.mu. A connection that fails is dropped, so the next call dials;
// resend says whether this call may do so itself (see Client).
func (c *Client) callLocked(req *cdr.Encoder, resend bool) (*cdr.Decoder, error) {
	if c.closed {
		return nil, ErrClosed
	}
	for {
		reused := c.conn != nil
		if !reused {
			conn, err := c.dial("tcp", c.addr, c.timeout)
			if err != nil {
				return nil, fmt.Errorf("namesvc: dial %s: %w", c.addr, err)
			}
			c.tel.NamingDial()
			c.conn, c.rd = conn, frame.NewReader(conn)
		}
		_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
		err := frame.Write(c.conn, req)
		if err == nil {
			var reply []byte
			if reply, err = c.rd.Next(); err == nil {
				return cdr.NewDecoder(reply, cdr.BigEndian), nil
			}
			err = fmt.Errorf("namesvc: read reply: %w", err)
		}
		// A reply that had begun, or a server that merely took too long, is
		// not a stale session: the request may be executing.
		stale := reused && c.rd.Buffered() == 0 && !errors.Is(err, os.ErrDeadlineExceeded)
		_ = c.dropLocked()
		if !stale || !resend {
			return nil, err
		}
	}
}

// nameOp performs one operation and returns the reply's status and a decoder
// on what follows it. The caller holds c.mu until it is done with the
// decoder.
func (c *Client) nameOp(op byte, name string, extra ...string) (*cdr.Decoder, byte, error) {
	e := cdr.GetEncoder(cdr.BigEndian)
	defer e.Release()
	frame.Begin(e)
	e.WriteOctet(op)
	e.WriteString(name)
	for _, s := range extra {
		e.WriteString(s)
	}
	d, err := c.callLocked(e, op != opBind)
	if err != nil {
		return nil, 0, err
	}
	st, err := d.ReadOctet()
	if err != nil {
		return nil, 0, err
	}
	return d, st, nil
}

// Bind registers ior under name; it fails if the name is already bound.
func (c *Client) Bind(name string, ior giop.IOR) error {
	return c.bind(opBind, name, ior)
}

// Rebind registers ior under name, replacing any existing binding. Restarted
// replicas use Rebind so their registration order is preserved.
func (c *Client) Rebind(name string, ior giop.IOR) error {
	return c.bind(opRebind, name, ior)
}

func (c *Client) bind(op byte, name string, ior giop.IOR) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, st, err := c.nameOp(op, name, ior.String())
	if err != nil {
		return err
	}
	switch st {
	case stOK:
		return nil
	case stError:
		msg, _ := d.ReadString()
		return fmt.Errorf("namesvc: bind %q: %s", name, msg)
	default:
		return fmt.Errorf("namesvc: bind %q: unexpected status %d", name, st)
	}
}

// Resolve looks up the IOR bound to name.
func (c *Client) Resolve(name string) (giop.IOR, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, st, err := c.nameOp(opResolve, name)
	if err != nil {
		return giop.IOR{}, err
	}
	switch st {
	case stOK:
		s, err := d.ReadString()
		if err != nil {
			return giop.IOR{}, err
		}
		return giop.ParseIOR(s)
	case stNotFound:
		return giop.IOR{}, fmt.Errorf("resolve %q: %w", name, ErrNotFound)
	default:
		return giop.IOR{}, fmt.Errorf("namesvc: resolve %q: unexpected status %d", name, st)
	}
}

// Unbind removes the binding for name.
func (c *Client) Unbind(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, st, err := c.nameOp(opUnbind, name)
	if err != nil {
		return err
	}
	if st == stNotFound {
		return fmt.Errorf("unbind %q: %w", name, ErrNotFound)
	}
	return nil
}

// List returns all bindings whose names begin with prefix, in registration
// order ("the addresses of the three server replicas" that the cached
// reactive client stores).
func (c *Client) List(prefix string) ([]Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, st, err := c.nameOp(opList, prefix)
	if err != nil {
		return nil, err
	}
	if st != stOK {
		return nil, fmt.Errorf("namesvc: list %q: unexpected status %d", prefix, st)
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("namesvc: implausible listing size %d", n)
	}
	entries := make([]Entry, 0, n)
	for i := uint32(0); i < n; i++ {
		name, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		iorStr, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		ior, err := giop.ParseIOR(iorStr)
		if err != nil {
			return nil, fmt.Errorf("namesvc: listing entry %q: %w", name, err)
		}
		entries = append(entries, Entry{Name: name, IOR: ior})
	}
	return entries, nil
}
