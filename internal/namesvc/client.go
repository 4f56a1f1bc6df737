package namesvc

import (
	"fmt"
	"net"
	"time"

	"mead/internal/cdr"
	"mead/internal/frame"
	"mead/internal/giop"
)

// Client talks to the naming service. Each call opens its own connection,
// as a CORBA client resolving through a remote Naming Service would; the
// connection cost is part of the reactive schemes' re-resolution spike that
// the paper measures.
type Client struct {
	addr    string
	timeout time.Duration
	dial    func(network, addr string, timeout time.Duration) (net.Conn, error) // net.DialTimeout; tests count through it
}

// NewClient returns a client for the naming service at addr.
func NewClient(addr string) *Client {
	return &Client{addr: addr, timeout: 5 * time.Second, dial: net.DialTimeout}
}

// call sends the request frame begun in req in one write and decodes the
// reply frame, which one read normally delivers. The reply lives in the
// buffer of this call's own reader.
func (c *Client) call(req *cdr.Encoder) (*cdr.Decoder, error) {
	conn, err := c.dial("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, fmt.Errorf("namesvc: dial %s: %w", c.addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(c.timeout))
	if err := frame.Write(conn, req); err != nil {
		return nil, err
	}
	reply, err := frame.NewReader(conn).Next()
	if err != nil {
		return nil, fmt.Errorf("namesvc: read reply: %w", err)
	}
	return cdr.NewDecoder(reply, cdr.BigEndian), nil
}

func (c *Client) nameOp(op byte, name string, extra ...string) (*cdr.Decoder, byte, error) {
	e := cdr.GetEncoder(cdr.BigEndian)
	defer e.Release()
	frame.Begin(e)
	e.WriteOctet(op)
	e.WriteString(name)
	for _, s := range extra {
		e.WriteString(s)
	}
	d, err := c.call(e)
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
