package gcs

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"mead/internal/cdr"
	"mead/internal/frame"
	"mead/internal/telemetry"
)

// Hub is the group-communication sequencer: the single point through which
// all multicasts flow, which is what gives the system total order per group
// and a consistent, ordered view of membership changes. It plays the role of
// the Spread daemon in the paper's deployment.
type Hub struct {
	ln     net.Listener
	events chan hubEvent
	done   chan struct{}
	loop   chan struct{} // closed when the run loop exits

	delay  time.Duration // artificial delivery latency (LAN emulation)
	jitter time.Duration // uniform random extra latency per delivery
	wrap   func(net.Conn) net.Conn
	tel    *telemetry.Telemetry // nil-safe; see WithHubTelemetry

	rngMu sync.Mutex
	rng   *rand.Rand

	mu      sync.Mutex
	conns   map[string]*hubConn
	groups  map[string]*hubGroup
	traffic map[string]uint64 // on-wire bytes per group
	started time.Time
	closed  bool

	wg sync.WaitGroup
}

type hubGroup struct {
	seq     uint64
	viewID  uint64
	members []string // join order; index 0 is the oldest member
}

// hubConn is one member's connection. The sequencer only ever queues frames
// on it and stops it; socket work belongs to the connection's own two
// goroutines: the reader closes the connection when its stream ends, the
// writer when a write fails or the sequencer has stopped it.
type hubConn struct {
	name    string
	conn    net.Conn
	rd      *frame.Reader
	tel     *telemetry.Telemetry // nil-safe
	out     chan outFrame
	quit    chan struct{}
	stopped bool // quit is closed; sequencer goroutine only
}

// outFrame is a queued complete frame (length prefix included, shared with
// the other recipients, never written to) with its earliest send time (due
// is zero when no artificial latency is configured).
type outFrame struct {
	frame []byte
	due   time.Time
}

// maxBatch bounds the bytes writeLoop coalesces into one transport write.
const maxBatch = 64 << 10

// HubOption configures a Hub.
type HubOption interface{ applyHub(*Hub) }

type hubOptionFunc func(*Hub)

func (f hubOptionFunc) applyHub(h *Hub) { f(h) }

// WithConnWrapper interposes w on every accepted member connection (the
// chaos harness's injection point for hub-side wire faults).
func WithConnWrapper(w func(net.Conn) net.Conn) HubOption {
	return hubOptionFunc(func(h *Hub) { h.wrap = w })
}

// WithDeliveryDelay adds a fixed latency to every hub-to-member delivery,
// emulating a LAN hop (the paper's Emulab network) instead of loopback.
// The NEEDS_ADDRESSING scheme's failure window — the race between the
// client's 10 ms group query and membership agreement — only opens with
// realistic delivery latency.
func WithDeliveryDelay(d time.Duration) HubOption {
	return hubOptionFunc(func(h *Hub) { h.delay = d })
}

// WithDeliveryJitter adds a uniform random extra latency in [0, j) to each
// delivery, making latency-sensitive races (the paper's partial
// NEEDS_ADDRESSING failure rate) stochastic rather than all-or-nothing.
// The seed keeps runs reproducible.
func WithDeliveryJitter(j time.Duration, seed int64) HubOption {
	return hubOptionFunc(func(h *Hub) {
		h.jitter = j
		h.rng = rand.New(rand.NewSource(seed))
	})
}

// WithHubTelemetry attaches the process telemetry: the hub counts data
// multicasts delivered and views emitted.
func WithHubTelemetry(t *telemetry.Telemetry) HubOption {
	return hubOptionFunc(func(h *Hub) { h.tel = t })
}

type hubEventKind int

const (
	evRegister hubEventKind = iota + 1
	evJoin
	evLeave
	evMcast
	evSend
	evGone
)

type hubEvent struct {
	kind    hubEventKind
	hc      *hubConn
	group   string
	target  string
	payload []byte
}

// NewHub returns an unstarted Hub.
func NewHub(opts ...HubOption) *Hub {
	h := &Hub{
		events:  make(chan hubEvent, 256),
		done:    make(chan struct{}),
		loop:    make(chan struct{}),
		conns:   make(map[string]*hubConn),
		groups:  make(map[string]*hubGroup),
		traffic: make(map[string]uint64),
	}
	for _, o := range opts {
		o.applyHub(h)
	}
	return h
}

// Start begins listening on addr (e.g. "127.0.0.1:0") and serving members.
func (h *Hub) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("gcs: hub listen: %w", err)
	}
	h.ln = ln
	h.started = time.Now()
	h.wg.Add(2)
	go func() {
		defer h.wg.Done()
		h.acceptLoop()
	}()
	go func() {
		defer h.wg.Done()
		h.run()
	}()
	return nil
}

// Addr returns the hub's listen address.
func (h *Hub) Addr() string {
	if h.ln == nil {
		return ""
	}
	return h.ln.Addr().String()
}

// Close shuts the hub down and waits for its goroutines to exit.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.mu.Unlock()
	close(h.done)
	if h.ln != nil {
		_ = h.ln.Close()
	}
	h.wg.Wait()
	return nil
}

// GroupTraffic returns the cumulative on-wire bytes exchanged for the given
// group (multicasts received plus deliveries and views sent) and the hub
// start time, from which callers derive bytes/second for Figure 5.
func (h *Hub) GroupTraffic(group string) (bytes uint64, since time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.traffic[group], h.started
}

// ResetTraffic zeroes the per-group byte counters and restarts the
// accounting clock, so an experiment can scope bandwidth to its run.
func (h *Hub) ResetTraffic() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.traffic = make(map[string]uint64)
	h.started = time.Now()
}

// Members returns the current membership of a group in join order.
func (h *Hub) Members(group string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	g := h.groups[group]
	if g == nil {
		return nil
	}
	out := make([]string, len(g.members))
	copy(out, g.members)
	return out
}

func (h *Hub) acceptLoop() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if h.wrap != nil {
			conn = h.wrap(conn)
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.handshake(conn)
		}()
	}
}

// handshake reads the member's hello, registers it, then runs its read loop.
func (h *Hub) handshake(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rd := frame.NewReader(conn)
	hello, err := rd.Next()
	if err != nil {
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	d := cdr.NewDecoder(hello, cdr.BigEndian)
	op, err := d.ReadOctet()
	if err != nil || op != opHello {
		_ = conn.Close()
		return
	}
	name, err := d.ReadString()
	if err != nil || name == "" {
		_ = conn.Close()
		return
	}

	hc := &hubConn{
		name: name,
		conn: conn,
		rd:   rd,
		tel:  h.tel,
		// 1024 frames is the backlog a member may fall behind by before the
		// hub calls it a slow consumer and drops it (see enqueue).
		out:  make(chan outFrame, 1024),
		quit: make(chan struct{}),
	}

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		_ = conn.Close()
		return
	}
	if _, dup := h.conns[name]; dup {
		h.mu.Unlock()
		if denied, err := encodeDenied("duplicate member name " + name); err == nil {
			_, _ = conn.Write(denied)
		}
		_ = conn.Close()
		return
	}
	h.conns[name] = hc
	h.mu.Unlock()

	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		hc.writeLoop()
	}()
	h.readLoop(hc)
}

// writeLoop is the member's writer: it sends everything queued and due in
// one transport write. A lone frame goes out straight from the shared
// buffer; several are copied into a batch buffer this loop owns. It closes
// the connection when it exits.
func (hc *hubConn) writeLoop() {
	defer hc.conn.Close()
	var (
		batch []byte
		head  outFrame // dequeued, not yet written
		held  bool     // head was dequeued by the previous drain, before it was due
	)
	for {
		if !held {
			select {
			case head = <-hc.out:
			case <-hc.quit:
				return
			}
		}
		held = false
		if wait := untilDue(head.due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-hc.quit:
				timer.Stop()
				return
			}
		}
		out, frames := head.frame, 1
	drain:
		for len(out) < maxBatch {
			select {
			case head = <-hc.out:
			default:
				break drain
			}
			if untilDue(head.due) > 0 {
				held = true
				break
			}
			if frames == 1 {
				batch = append(batch[:0], out...)
			}
			batch = append(batch, head.frame...)
			out, frames = batch, frames+1
		}
		if _, err := hc.conn.Write(out); err != nil {
			return
		}
		hc.tel.GroupWrite(frames)
		if cap(batch) > maxBatch*2 {
			batch = nil
		}
	}
}

// untilDue returns how long a queued frame still has to wait.
func untilDue(due time.Time) time.Duration {
	if due.IsZero() {
		return 0
	}
	return time.Until(due)
}

// enqueue queues a frame for the member. A full queue marks the member as a
// slow consumer: the hub drops it rather than stall the group, and leaves
// the close to the member's writer (see stop).
func (hc *hubConn) enqueue(frame []byte, due time.Time) {
	select {
	case hc.out <- outFrame{frame: frame, due: due}:
	default:
		if !hc.stopped {
			hc.tel.SlowConsumerDrop()
			hc.stop()
		}
	}
}

// stop ends the member's writer, which closes the connection on its way
// out; that in turn ends the reader, whose evGone removes the member. The
// sequencer itself never closes a socket: a writer parked in its select
// sees quit, and one blocked in a write towards a member that stopped
// reading is released by the expired write deadline.
func (hc *hubConn) stop() {
	if hc.stopped {
		return
	}
	hc.stopped = true
	close(hc.quit)
	_ = hc.conn.SetWriteDeadline(time.Now())
}

// dueTime stamps a delivery with the configured latency.
func (h *Hub) dueTime() time.Time {
	d := h.delay
	if h.jitter > 0 && h.rng != nil {
		h.rngMu.Lock()
		d += time.Duration(h.rng.Int63n(int64(h.jitter)))
		h.rngMu.Unlock()
	}
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

func (h *Hub) readLoop(hc *hubConn) {
	// The reader closes its own connection, after posting evGone so that a
	// close that blocks cannot hold back the view the others are waiting for.
	defer hc.conn.Close()
	defer h.post(hubEvent{kind: evGone, hc: hc})
	// The posted events carry only copies (ReadString/ReadOctets) of the
	// frame's fields; the frame itself dies at the next rd.Next.
	for {
		raw, err := hc.rd.Next()
		if err != nil {
			return
		}
		d := cdr.NewDecoder(raw, cdr.BigEndian)
		op, err := d.ReadOctet()
		if err != nil {
			return
		}
		ev := hubEvent{hc: hc}
		switch op {
		case opJoin, opLeave:
			group, err := d.ReadString()
			if err != nil {
				return
			}
			ev.group = group
			if op == opJoin {
				ev.kind = evJoin
			} else {
				ev.kind = evLeave
			}
		case opMcast:
			group, err := d.ReadString()
			if err != nil {
				return
			}
			payload, err := d.ReadOctets()
			if err != nil {
				return
			}
			ev.kind = evMcast
			ev.group = group
			ev.payload = payload
			h.addTraffic(group, uint64(frame.PrefixLen+len(raw)))
		case opSend:
			target, err := d.ReadString()
			if err != nil {
				return
			}
			payload, err := d.ReadOctets()
			if err != nil {
				return
			}
			ev.kind = evSend
			ev.target = target
			ev.payload = payload
		default:
			return
		}
		if !h.post(ev) {
			return
		}
	}
}

func (h *Hub) post(ev hubEvent) bool {
	select {
	case h.events <- ev:
		return true
	case <-h.done:
		return false
	}
}

func (h *Hub) addTraffic(group string, n uint64) {
	h.mu.Lock()
	h.traffic[group] += n
	h.mu.Unlock()
}

// run is the sequencer: the single goroutine that orders every event.
func (h *Hub) run() {
	defer close(h.loop)
	for {
		select {
		case ev := <-h.events:
			h.handle(ev)
		case <-h.done:
			h.mu.Lock()
			conns := make([]*hubConn, 0, len(h.conns))
			for _, hc := range h.conns {
				conns = append(conns, hc)
			}
			h.conns = make(map[string]*hubConn)
			h.mu.Unlock()
			for _, hc := range conns {
				hc.stop()
			}
			return
		}
	}
}

func (h *Hub) handle(ev hubEvent) {
	switch ev.kind {
	case evJoin:
		h.mu.Lock()
		g := h.groups[ev.group]
		if g == nil {
			g = &hubGroup{}
			h.groups[ev.group] = g
		}
		if !contains(g.members, ev.hc.name) {
			g.members = append(g.members, ev.hc.name)
		}
		h.mu.Unlock()
		h.emitView(ev.group, g)
	case evLeave:
		h.removeFromGroup(ev.group, ev.hc.name)
	case evMcast:
		h.deliver(ev.group, ev.hc, ev.payload)
	case evSend:
		h.mu.Lock()
		target := h.conns[ev.target]
		h.mu.Unlock()
		if target == nil {
			return
		}
		private, err := encodePrivate(ev.hc.name, ev.payload)
		if err != nil {
			ev.hc.stop() // a payload no frame can carry: the sender broke the protocol
			return
		}
		target.enqueue(private, h.dueTime())
	case evGone:
		h.mu.Lock()
		if h.conns[ev.hc.name] == ev.hc {
			delete(h.conns, ev.hc.name)
		}
		groups := make([]string, 0, len(h.groups))
		for name, g := range h.groups {
			if contains(g.members, ev.hc.name) {
				groups = append(groups, name)
			}
		}
		h.mu.Unlock()
		ev.hc.stop()
		for _, group := range groups {
			h.removeFromGroup(group, ev.hc.name)
		}
	}
}

func (h *Hub) removeFromGroup(group, member string) {
	h.mu.Lock()
	g := h.groups[group]
	if g == nil || !contains(g.members, member) {
		h.mu.Unlock()
		return
	}
	kept := g.members[:0]
	for _, m := range g.members {
		if m != member {
			kept = append(kept, m)
		}
	}
	g.members = kept
	h.mu.Unlock()
	h.emitView(group, g)
}

// deliver fans a data message out to every current member of the group, in
// a single critical section so the sequence number and recipient set are
// consistent (total order).
func (h *Hub) deliver(group string, sender *hubConn, payload []byte) {
	h.mu.Lock()
	g := h.groups[group]
	if g == nil {
		h.mu.Unlock()
		return
	}
	delivery, err := encodeDeliver(group, g.seq+1, sender.name, payload)
	if err != nil {
		h.mu.Unlock()
		sender.stop() // a payload no frame can carry: the sender broke the protocol
		return
	}
	g.seq++
	recipients := h.lookupConns(g.members)
	h.traffic[group] += uint64(len(delivery)) * uint64(len(recipients))
	due := h.dueTime()
	h.mu.Unlock()
	h.tel.Multicast()
	for _, hc := range recipients {
		hc.enqueue(delivery, due)
	}
}

func (h *Hub) emitView(group string, g *hubGroup) {
	h.mu.Lock()
	if h.groups[group] != g {
		h.mu.Unlock()
		return
	}
	g.seq++
	g.viewID++
	members := make([]string, len(g.members))
	copy(members, g.members)
	view, err := encodeView(group, g.viewID, g.seq, members)
	if err != nil {
		h.mu.Unlock()
		return // member names too long for any frame to list them
	}
	recipients := h.lookupConns(members)
	h.traffic[group] += uint64(len(view)) * uint64(len(recipients))
	due := h.dueTime()
	h.mu.Unlock()
	h.tel.ViewChange()
	for _, hc := range recipients {
		hc.enqueue(view, due)
	}
}

// lookupConns maps member names to live connections. Callers must hold h.mu.
func (h *Hub) lookupConns(names []string) []*hubConn {
	out := make([]*hubConn, 0, len(names))
	for _, n := range names {
		if hc, ok := h.conns[n]; ok {
			out = append(out, hc)
		}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// ErrHubClosed reports use of a closed hub.
var ErrHubClosed = errors.New("gcs: hub closed")
