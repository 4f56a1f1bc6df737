package gcs

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/frame"
	"mead/internal/telemetry"
)

// tapConn records every transport write and can hold its writer or its
// closer until released.
type tapConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte

	holdWrite   atomic.Pointer[gate] // armed: the next Write parks on it
	holdClose   *gate                // non-nil: Close parks on it
	closeCalled chan struct{}
	closeOnce   sync.Once
}

// gate parks whoever waits on it until it is opened, and says when the
// first one arrived.
type gate struct {
	arrived chan struct{}
	open    chan struct{}
	once    sync.Once
	opened  sync.Once
}

func newGate() *gate { return &gate{arrived: make(chan struct{}), open: make(chan struct{})} }

func (g *gate) release() { g.opened.Do(func() { close(g.open) }) }

func (g *gate) wait() {
	g.once.Do(func() { close(g.arrived) })
	<-g.open
}

func (c *tapConn) Write(p []byte) (int, error) {
	if g := c.holdWrite.Swap(nil); g != nil {
		g.wait()
	}
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte{}, p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tapConn) Close() error {
	if c.closeCalled != nil {
		c.closeOnce.Do(func() { close(c.closeCalled) })
	}
	if c.holdClose != nil {
		c.holdClose.wait()
	}
	return c.Conn.Close()
}

func (c *tapConn) taken() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.writes
	c.writes = nil
	return out
}

// taps hands out one tapConn per accepted hub connection, in accept order,
// and per dialled member connection.
type taps struct {
	mu    sync.Mutex
	hub   []*tapConn
	setup func(*tapConn) // run on each hub-side conn before the hub sees it
}

func (tp *taps) wrap(c net.Conn) net.Conn {
	tc := &tapConn{Conn: c}
	tp.mu.Lock()
	if tp.setup != nil {
		tp.setup(tc)
	}
	tp.hub = append(tp.hub, tc)
	tp.mu.Unlock()
	return tc
}

func (tp *taps) hubConn(i int) *tapConn {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.hub[i]
}

// dialTapped dials a member through a tapConn and waits until the hub has
// accepted it, so hub-side taps are indexed in dial order.
func dialTapped(t *testing.T, h *Hub, tp *taps, name string) (*Member, *tapConn) {
	t.Helper()
	tp.mu.Lock()
	want := len(tp.hub) + 1
	tp.mu.Unlock()
	var tc *tapConn
	m, err := DialWith(func(network, addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		tc = &tapConn{Conn: c}
		return tc, nil
	}, h.Addr(), name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for {
		tp.mu.Lock()
		n := len(tp.hub)
		tp.mu.Unlock()
		if n >= want {
			return m, tc
		}
		if time.Now().After(deadline) {
			t.Fatalf("hub never accepted %s", name)
		}
		time.Sleep(time.Millisecond)
	}
}

func startTappedHub(t *testing.T, tp *taps, opts ...HubOption) *Hub {
	t.Helper()
	h := NewHub(append([]HubOption{WithConnWrapper(tp.wrap)}, opts...)...)
	if err := h.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h
}

// framesIn splits one transport write into the frames it carries.
func framesIn(t *testing.T, write []byte) [][]byte {
	t.Helper()
	var out [][]byte
	rd := frame.NewReader(bytes.NewReader(write))
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("write of %d bytes is not whole frames: %v", len(write), err)
		}
		out = append(out, append([]byte{}, p...))
	}
}

// TestMulticastIsOneWritePerHop counts transport writes on both sides of
// the hub: a multicast to a 3-member group is 1 member write and 3 hub
// writes, and frames that queue up behind a busy writer share one write.
func TestMulticastIsOneWritePerHop(t *testing.T) {
	tp := &taps{}
	h := startTappedHub(t, tp)
	a, aConn := dialTapped(t, h, tp, "a")
	b, _ := dialTapped(t, h, tp, "b")
	c, _ := dialTapped(t, h, tp, "c")
	for i, m := range []*Member{a, b, c} {
		if err := m.Join("g"); err != nil {
			t.Fatal(err)
		}
		for _, seen := range []*Member{a, b, c}[:i+1] {
			nextOfKind(t, seen, DeliverView)
		}
	}
	aConn.taken()
	for i := 0; i < 3; i++ {
		tp.hubConn(i).taken()
	}

	if err := a.Multicast("g", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Member{a, b, c} {
		if d := nextOfKind(t, m, DeliverData); string(d.Payload) != "payload" {
			t.Fatalf("%s got %q", m.Name(), d.Payload)
		}
	}
	if w := aConn.taken(); len(w) != 1 {
		t.Fatalf("the multicast left the member in %d writes, want 1", len(w))
	}
	for i := 0; i < 3; i++ {
		if w := tp.hubConn(i).taken(); len(w) != 1 || len(framesIn(t, w[0])) != 1 {
			t.Fatalf("hub wrote the delivery to member %d in %d writes, want 1 write of 1 frame", i, len(w))
		}
	}

	// Hold c's writer inside the write of one delivery; a view and a second
	// delivery queue up behind it and leave together.
	held := newGate()
	defer held.release()
	tp.hubConn(2).holdWrite.Store(held)
	if err := a.Multicast("g", []byte("first")); err != nil {
		t.Fatal(err)
	}
	<-held.arrived
	d, _ := dialTapped(t, h, tp, "d")
	if err := d.Join("g"); err != nil {
		t.Fatal(err)
	}
	nextOfKind(t, d, DeliverView)
	if err := a.Multicast("g", []byte("second")); err != nil {
		t.Fatal(err)
	}
	// d comes after c in the view, so once d holds both frames c's queue
	// does too.
	nextOfKind(t, d, DeliverData)
	held.release()
	if got := nextOfKind(t, c, DeliverData); string(got.Payload) != "first" {
		t.Fatalf("c got %q first", got.Payload)
	}
	nextOfKind(t, c, DeliverView)
	if got := nextOfKind(t, c, DeliverData); string(got.Payload) != "second" {
		t.Fatalf("c got %q second", got.Payload)
	}
	w := tp.hubConn(2).taken()
	if len(w) != 2 {
		t.Fatalf("three frames reached c in %d writes, want 2 (the held one, then view+delivery together)", len(w))
	}
	if n := len(framesIn(t, w[1])); n != 2 {
		t.Fatalf("the write behind the held one carried %d frames, want 2", n)
	}
}

// TestHubSequencerNeverCloses: a member connection whose Close blocks (a
// linger, a wrapper flushing, a wedged injector) must not hold back the view
// that tells the others the member is gone. At the parent commit the
// sequencer itself closed the connection before emitting the view.
func TestHubSequencerNeverCloses(t *testing.T) {
	stuck := newGate()
	tp := &taps{}
	tp.setup = func(tc *tapConn) {
		if len(tp.hub) == 2 { // the third connection: member x
			tc.holdClose = stuck
			tc.closeCalled = make(chan struct{})
		}
	}
	h := startTappedHub(t, tp)
	defer stuck.release() // let the hub shut down
	a, _ := dialTapped(t, h, tp, "a")
	b, _ := dialTapped(t, h, tp, "b")
	x, _ := dialTapped(t, h, tp, "x")
	for i, m := range []*Member{a, b, x} {
		if err := m.Join("g"); err != nil {
			t.Fatal(err)
		}
		for _, seen := range []*Member{a, b, x}[:i+1] {
			nextOfKind(t, seen, DeliverView)
		}
	}
	_ = x.Close()
	for _, m := range []*Member{a, b} {
		v := nextOfKind(t, m, DeliverView)
		if len(v.View.Members) != 2 || v.View.Members[0] != "a" || v.View.Members[1] != "b" {
			t.Fatalf("%s saw view %v, want [a b]", m.Name(), v.View.Members)
		}
	}
	// The group carries on while x's connection is still being closed.
	<-tp.hubConn(2).closeCalled
	if err := a.Multicast("g", []byte("still here")); err != nil {
		t.Fatal(err)
	}
	nextOfKind(t, b, DeliverData)
}

// TestHubDropsSlowConsumerWithoutStallingGroup: a member that stops
// reading is disconnected once the socket and its 1024-frame queue are
// full; the others see every delivery, in order, and then the view
// without it.
func TestHubDropsSlowConsumerWithoutStallingGroup(t *testing.T) {
	tel := telemetry.New()
	h := NewHub(WithHubTelemetry(tel))
	if err := h.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	a := dial(t, h, "a")
	b := dial(t, h, "b")
	_ = a.Join("g")
	nextOfKind(t, a, DeliverView)
	_ = b.Join("g")
	nextOfKind(t, a, DeliverView)
	nextOfKind(t, b, DeliverView)

	// The slow member speaks the protocol by hand and never reads.
	slow, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	e := cdr.NewEncoder(cdr.BigEndian)
	for _, op := range []struct {
		op   byte
		name string
	}{{opHello, "slow"}, {opJoin, "g"}} {
		putOp(e, op.op, op.name, nil)
		if err := frame.Write(slow, e); err != nil {
			t.Fatal(err)
		}
	}
	nextOfKind(t, a, DeliverView)
	nextOfKind(t, b, DeliverView)

	// a and b keep consuming: what each saw, in order, ends with the view
	// that drops the slow member.
	type seen struct {
		seqs   []uint64
		view   View
		closed bool
	}
	watch := func(m *Member) <-chan seen {
		out := make(chan seen, 1)
		go func() {
			var s seen
			for d := range m.Deliveries() {
				s.seqs = append(s.seqs, d.Seq)
				if d.Kind == DeliverView {
					s.view = d.View
					out <- s
					return
				}
			}
			s.closed = true
			out <- s
		}()
		return out
	}
	sawA, sawB := watch(a), watch(b)

	payload := make([]byte, 16<<10)
	const limit = 20000 // 320 MB: far beyond any socket buffer plus the queue
	sent := 0
	for ; sent < limit && tel.SlowConsumerDrops.Value() == 0; sent++ {
		if err := a.Multicast("g", payload); err != nil {
			t.Fatalf("multicast %d: %v", sent, err)
		}
	}
	if tel.SlowConsumerDrops.Value() != 1 {
		t.Fatalf("hub never dropped the slow member (%d multicasts)", sent)
	}
	if sent < 1024 {
		t.Fatalf("slow member dropped after %d multicasts, before its 1024-frame queue could fill", sent)
	}
	for _, ch := range []<-chan seen{sawA, sawB} {
		var s seen
		select {
		case s = <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("no view without the slow member: the group stalled")
		}
		if s.closed {
			t.Fatal("a healthy member was disconnected")
		}
		if got := s.view.Members; len(got) != 2 || got[0] != "a" || got[1] != "b" {
			t.Fatalf("final view %v, want [a b]", got)
		}
		for i := 1; i < len(s.seqs); i++ {
			if s.seqs[i] != s.seqs[i-1]+1 {
				t.Fatalf("gap in total order: seq %d follows %d", s.seqs[i], s.seqs[i-1])
			}
		}
		if len(s.seqs) < 1024 {
			t.Fatalf("a healthy member saw %d deliveries before the view, fewer than the slow member's queue holds", len(s.seqs))
		}
	}
	if tel.GroupWrites.Value() == 0 || tel.GroupFrames.Value() < tel.GroupWrites.Value() {
		t.Fatalf("frames %d / writes %d", tel.GroupFrames.Value(), tel.GroupWrites.Value())
	}
}

// sinkConn is a transport that goes nowhere: writes vanish (signalling
// wrote when set), reads block until Close.
type sinkConn struct {
	net.Conn
	wrote  chan int
	closed chan struct{}
	once   sync.Once
}

func newSinkConn() *sinkConn {
	return &sinkConn{wrote: make(chan int, 16), closed: make(chan struct{})}
}

func (c *sinkConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	c.wrote <- len(p)
	return len(p), nil
}

func (c *sinkConn) Read([]byte) (int, error)         { <-c.closed; return 0, io.EOF }
func (c *sinkConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// TestFramePathsDoNotAllocatePerFrame: a member's send is built in the
// encoder its connection owns, and the hub's fan-out allocates one shared
// frame per multicast, nothing per recipient and nothing in the writers.
func TestFramePathsDoNotAllocatePerFrame(t *testing.T) {
	conn := newSinkConn()
	m, err := DialWith(func(string, string, time.Duration) (net.Conn, error) { return conn, nil }, "unused", "m")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	<-conn.wrote // hello
	payload := make([]byte, 64)
	if avg := testing.AllocsPerRun(200, func() {
		if err := m.Multicast("group", payload); err != nil {
			t.Fatal(err)
		}
		<-conn.wrote
	}); avg != 0 {
		t.Fatalf("member send: %v allocs per frame, want 0", avg)
	}

	fanOut := func(members int) float64 {
		h := NewHub()
		g := &hubGroup{}
		h.groups["g"] = g
		var conns []*sinkConn
		var wg sync.WaitGroup
		defer wg.Wait()
		for i := 0; i < members; i++ {
			sc := newSinkConn()
			name := string(rune('a' + i))
			hc := &hubConn{name: name, conn: sc, out: make(chan outFrame, 1024), quit: make(chan struct{})}
			h.conns[name] = hc
			g.members = append(g.members, name)
			conns = append(conns, sc)
			wg.Add(1)
			go func() { defer wg.Done(); hc.writeLoop() }()
			defer hc.stop()
		}
		sender := h.conns["a"]
		return testing.AllocsPerRun(200, func() {
			h.deliver("g", sender, payload)
			for _, sc := range conns {
				<-sc.wrote
			}
		})
	}
	one, three := fanOut(1), fanOut(3)
	if one != three {
		t.Fatalf("hub fan-out: %v allocs per multicast to 1 member, %v to 3: something is allocated per recipient", one, three)
	}
	// The delivery frame (encoder and its buffer) and the recipient list.
	if three > 3 {
		t.Fatalf("hub fan-out: %v allocs per multicast, want at most 3", three)
	}
}

// TestWriterBatchIsBounded: draining stops at maxBatch bytes, so a backlog
// leaves in several bounded writes, in order.
func TestWriterBatchIsBounded(t *testing.T) {
	sc := newSinkConn()
	hc := &hubConn{name: "m", conn: sc, out: make(chan outFrame, 1024), quit: make(chan struct{})}
	big := make([]byte, maxBatch/2+1)
	for i := 0; i < 4; i++ {
		hc.enqueue(big, time.Time{})
	}
	done := make(chan struct{})
	go func() { defer close(done); hc.writeLoop() }()
	for i := 0; i < 2; i++ {
		if n := <-sc.wrote; n != 2*len(big) {
			t.Fatalf("write %d carried %d bytes, want two frames (%d)", i, n, 2*len(big))
		}
	}
	hc.stop()
	<-done
}

// A frame that is not yet due holds back the frames behind it, and only
// them: what is due leaves without waiting.
func TestWriterRespectsDueTimes(t *testing.T) {
	sc := newSinkConn()
	hc := &hubConn{name: "m", conn: sc, out: make(chan outFrame, 1024), quit: make(chan struct{})}
	now := time.Now()
	hc.enqueue([]byte("aa"), time.Time{})
	hc.enqueue([]byte("bbb"), now.Add(40*time.Millisecond))
	hc.enqueue([]byte("c"), time.Time{})
	done := make(chan struct{})
	go func() { defer close(done); hc.writeLoop() }()
	if n := <-sc.wrote; n != 2 {
		t.Fatalf("first write carried %d bytes, want the due frame alone (2)", n)
	}
	if n := <-sc.wrote; n != 4 {
		t.Fatalf("second write carried %d bytes, want the delayed frame and the one behind it (4)", n)
	}
	if waited := time.Since(now); waited < 35*time.Millisecond {
		t.Fatalf("the delayed frame left after %v, before it was due", waited)
	}
	hc.stop()
	<-done
}

// stop releases a writer blocked in a write towards a peer that stopped
// reading: the expired deadline fails the write and the writer closes.
func TestStopReleasesBlockedWriter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close() // never reads
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	hc := &hubConn{name: "m", conn: conn, out: make(chan outFrame, 1024), quit: make(chan struct{})}
	done := make(chan struct{})
	go func() { defer close(done); hc.writeLoop() }()
	// Keep the queue topped up until the writer has taken nothing from it
	// for 50 ms: the socket is full and the writer is parked in Write.
	chunk := make([]byte, maxBatch)
	for idle := 0; idle < 5; {
		select {
		case hc.out <- outFrame{frame: chunk}:
			idle = 0
		default:
			idle++
			time.Sleep(10 * time.Millisecond)
		}
	}
	hc.stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer still blocked after stop")
	}
	if _, err := conn.Write([]byte{0}); !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection after stop: %v, want it closed by the writer", err)
	}
}

// The frames below were recorded at the parent commit (two transport writes
// per frame then). They must decode and re-encode byte for byte.
var parentFrames = map[string]string{
	"hello":       "0000000b0100000000000003723100",
	"join":        "00000012020000000000000a74696d656f6664617900",
	"leave":       "00000012030000000000000a74696d656f6664617900",
	"mcast":       "00000024040000000000000a74696d656f666461790000000000000c636865636b706f696e742d37",
	"send":        "0000002305000000000000117265636f766572792d6d616e616765720000000000000003010203",
	"deliver":     "000000380a0000000000000a74696d656f6664617900000000000000010203040506070800000003723200000000000c636865636b706f696e742d37",
	"view":        "000000510b0000000000000a74696d656f6664617900000000000000000000000000000300000000000000090000000300000003723100000000000472323200000000117265636f766572792d6d616e6167657200",
	"private":     "000000150c0000000000000372330000000000057374617465",
	"denied":      "000000210d000000000000196475706c6963617465206d656d626572206e616d6520723100",
	"mcast-empty": "0000001004000000000000026700000000000000",
}

func TestWireBytesMatchParent(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	member := func(op byte, name string, payload []byte) []byte {
		putOp(e, op, name, payload)
		b, err := frame.Finish(e)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte{}, b...)
	}
	hub := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	got := map[string][]byte{
		"hello":       member(opHello, "r1", nil),
		"join":        member(opJoin, "timeofday", nil),
		"leave":       member(opLeave, "timeofday", nil),
		"mcast":       member(opMcast, "timeofday", []byte("checkpoint-7")),
		"send":        member(opSend, "recovery-manager", []byte{1, 2, 3}),
		"deliver":     hub(encodeDeliver("timeofday", 0x0102030405060708, "r2", []byte("checkpoint-7"))),
		"view":        hub(encodeView("timeofday", 3, 9, []string{"r1", "r22", "recovery-manager"})),
		"private":     hub(encodePrivate("r3", []byte("state"))),
		"denied":      hub(encodeDenied("duplicate member name r1")),
		"mcast-empty": member(opMcast, "g", nil),
	}
	for name, want := range parentFrames {
		if hex.EncodeToString(got[name]) != want {
			t.Errorf("%s: %x, parent wrote %s", name, got[name], want)
		}
	}

	// And the other way: the parent's hub-to-member frames, as one stream,
	// decode through the member's read loop into the deliveries they encode.
	stream, _ := hex.DecodeString(parentFrames["deliver"] + parentFrames["view"] + parentFrames["private"])
	src := &sinkConn{closed: make(chan struct{}), wrote: make(chan int, 1)}
	m, err := DialWith(func(string, string, time.Duration) (net.Conn, error) {
		return &scriptedConn{sinkConn: src, data: stream}, nil
	}, "unused", "r1")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	d := next(t, m)
	if d.Kind != DeliverData || d.Group != "timeofday" || d.Seq != 0x0102030405060708 || d.Sender != "r2" || string(d.Payload) != "checkpoint-7" {
		t.Fatalf("deliver decoded as %+v", d)
	}
	v := next(t, m)
	if v.Kind != DeliverView || v.View.ID != 3 || v.View.Seq != 9 || len(v.View.Members) != 3 || v.View.Members[2] != "recovery-manager" || v.View.Primary() != "r1" {
		t.Fatalf("view decoded as %+v", v)
	}
	p := next(t, m)
	if p.Kind != DeliverPrivate || p.Sender != "r3" || string(p.Payload) != "state" {
		t.Fatalf("private decoded as %+v", p)
	}
}

// scriptedConn serves data, then blocks like an idle connection.
type scriptedConn struct {
	*sinkConn
	mu   sync.Mutex
	data []byte
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	n := copy(p, c.data)
	c.data = c.data[n:]
	c.mu.Unlock()
	if n > 0 {
		return n, nil
	}
	return c.sinkConn.Read(p)
}
