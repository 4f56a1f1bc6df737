package gcs

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mead/internal/cdr"
	"mead/internal/frame"
)

// DeliveryKind distinguishes the event types a member receives.
type DeliveryKind int

// Delivery kinds.
const (
	// DeliverData is a totally-ordered group multicast (including the
	// member's own sends: self-delivery, as in Spread).
	DeliverData DeliveryKind = iota + 1
	// DeliverView is a membership-change notification.
	DeliverView
	// DeliverPrivate is a point-to-point message addressed to this
	// member's private name.
	DeliverPrivate
)

// View is a group membership snapshot. Members are in join order: the first
// entry is the oldest member, which MEAD uses as the coordinator/primary
// ("the first replica listed in Spread's group-membership list").
type View struct {
	Group   string
	ID      uint64
	Seq     uint64
	Members []string
}

// Primary returns the oldest member, or "" for an empty view.
func (v View) Primary() string {
	if len(v.Members) == 0 {
		return ""
	}
	return v.Members[0]
}

// Delivery is one ordered event from the group-communication system.
type Delivery struct {
	Kind    DeliveryKind
	Group   string // data and view deliveries
	Seq     uint64 // data and view deliveries
	Sender  string // data and private deliveries
	Payload []byte // data and private deliveries
	View    View   // view deliveries
}

// Member errors.
var (
	// ErrMemberClosed reports use of a closed member connection.
	ErrMemberClosed = errors.New("gcs: member closed")
	// ErrDenied reports a hub-rejected connection (duplicate name).
	ErrDenied = errors.New("gcs: connection denied by hub")
)

// Member is one endpoint of the group-communication system.
type Member struct {
	name string
	conn net.Conn

	deliveries chan Delivery

	writeMu sync.Mutex
	enc     *cdr.Encoder // the outgoing frame, built and written under writeMu
	mu      sync.Mutex
	closed  bool
	quit    chan struct{}
	done    chan struct{}
}

// DialFunc opens the member's transport to the hub; the chaos harness
// substitutes netfault's injecting dialer (default net.DialTimeout).
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// Dial connects to the hub at addr and registers under the given unique
// member name.
func Dial(addr, name string) (*Member, error) {
	return DialWith(net.DialTimeout, addr, name)
}

// DialWith is Dial with an explicit transport dialer, so group
// communication runs over an injectable wire too.
func DialWith(dial DialFunc, addr, name string) (*Member, error) {
	conn, err := dial("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("gcs: dial hub %s: %w", addr, err)
	}
	m := &Member{
		name: name,
		conn: conn,
		// 64 deliveries (8 KiB) ride out a burst of views and checkpoints
		// while the consumer is busy; behind a slower consumer the socket and
		// the hub's own per-member queue hold the backlog. A replica group
		// under rejuvenation dials a member every few tens of milliseconds,
		// so the queue is sized to be cheap, not to be the backlog.
		deliveries: make(chan Delivery, 64),
		enc:        cdr.NewEncoder(cdr.BigEndian),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if err := m.send(opHello, name, nil); err != nil {
		_ = conn.Close()
		return nil, err
	}
	go m.readLoop()
	return m, nil
}

// Name returns the member's private name.
func (m *Member) Name() string { return m.name }

// Deliveries returns the ordered event stream. The channel is closed when
// the member disconnects.
func (m *Member) Deliveries() <-chan Delivery { return m.deliveries }

// Done is closed when the member's connection to the hub is gone.
func (m *Member) Done() <-chan struct{} { return m.done }

// Join subscribes the member to a group; the hub responds with a View.
func (m *Member) Join(group string) error {
	return m.send(opJoin, group, nil)
}

// Leave unsubscribes the member from a group.
func (m *Member) Leave(group string) error {
	return m.send(opLeave, group, nil)
}

// Multicast sends payload to all current members of group, in total order.
// Spread-style open-group semantics: the sender need not be a member.
func (m *Member) Multicast(group string, payload []byte) error {
	return m.send(opMcast, group, payload)
}

// Send delivers payload to one member's private name.
func (m *Member) Send(target string, payload []byte) error {
	return m.send(opSend, target, payload)
}

// send builds one frame in the member's own encoder and writes it, length
// prefix and payload, in a single transport write.
func (m *Member) send(op byte, name string, payload []byte) error {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return ErrMemberClosed
	}
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	putOp(m.enc, op, name, payload)
	err := frame.Write(m.conn, m.enc)
	if cap(m.enc.Bytes()) > maxBatch {
		m.enc = cdr.NewEncoder(cdr.BigEndian) // one large checkpoint must not pin its buffer
	}
	if err != nil {
		return fmt.Errorf("gcs: member %s send: %w", m.name, err)
	}
	return nil
}

// Close disconnects from the hub. The hub will remove the member from all
// groups and emit views, exactly as for a crash.
func (m *Member) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.quit)
	m.mu.Unlock()
	return m.conn.Close()
}

func (m *Member) readLoop() {
	defer func() {
		m.mu.Lock()
		if !m.closed {
			m.closed = true
			close(m.quit)
		}
		m.mu.Unlock()
		_ = m.conn.Close()
		close(m.deliveries)
		close(m.done)
	}()
	// Every Delivery field below is copied out of the frame by the CDR
	// reads; the frame itself dies at the next rd.Next.
	rd := frame.NewReader(m.conn)
	for {
		payload, err := rd.Next()
		if err != nil {
			return
		}
		d := cdr.NewDecoder(payload, cdr.BigEndian)
		op, err := d.ReadOctet()
		if err != nil {
			return
		}
		var dv Delivery
		switch op {
		case opDeliver:
			dv.Kind = DeliverData
			if dv.Group, err = d.ReadString(); err != nil {
				return
			}
			if dv.Seq, err = d.ReadULongLong(); err != nil {
				return
			}
			if dv.Sender, err = d.ReadString(); err != nil {
				return
			}
			if dv.Payload, err = d.ReadOctets(); err != nil {
				return
			}
		case opView:
			dv.Kind = DeliverView
			v := View{}
			if v.Group, err = d.ReadString(); err != nil {
				return
			}
			if v.ID, err = d.ReadULongLong(); err != nil {
				return
			}
			if v.Seq, err = d.ReadULongLong(); err != nil {
				return
			}
			n, err := d.ReadULong()
			if err != nil || n > 4096 {
				return
			}
			for i := uint32(0); i < n; i++ {
				member, err := d.ReadString()
				if err != nil {
					return
				}
				v.Members = append(v.Members, member)
			}
			dv.Group = v.Group
			dv.Seq = v.Seq
			dv.View = v
		case opPrivate:
			dv.Kind = DeliverPrivate
			if dv.Sender, err = d.ReadString(); err != nil {
				return
			}
			if dv.Payload, err = d.ReadOctets(); err != nil {
				return
			}
		case opDenied:
			return
		default:
			return
		}
		select {
		case m.deliveries <- dv:
		case <-m.quit:
			return
		}
	}
}
