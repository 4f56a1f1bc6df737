package ftmgr

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
	"mead/internal/interceptor"
	"mead/internal/telemetry"
)

// The tests below pin down the MEAD hand-off with a warmed standby: who
// dials, when, and that no dialed connection is left open. They sequence on
// events (a dial starting, a dial returning, a telemetry counter moving), not
// on time.

// dialLog is a DialFunc over real loopback dials that counts its calls, can
// hold or fail the calls to one address or hold the Close of what it returns
// for one, and remembers every connection it returned so a test can ask which
// are still open.
type dialLog struct {
	mu         sync.Mutex
	calls      []string
	conns      []*loggedConn
	gates      map[string]chan struct{}
	closeGates map[string]chan struct{}
	fails      map[string]int // dials to this address still to fail

	started  chan string      // one send per call, as it begins
	returned chan *loggedConn // one send per call, as it returns (nil = failed)
}

type loggedConn struct {
	net.Conn
	addr      string
	closeGate chan struct{} // nil, or Close waits for it to be closed
	once      sync.Once
	closed    chan struct{}
}

func (c *loggedConn) Close() error {
	if c.closeGate != nil {
		<-c.closeGate
	}
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *loggedConn) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

func newDialLog() *dialLog {
	return &dialLog{
		gates:      make(map[string]chan struct{}),
		closeGates: make(map[string]chan struct{}),
		fails:      make(map[string]int),
		// Sized to the dials one test makes, so the dialer never waits for
		// a test that does not read them.
		started:  make(chan string, 16),
		returned: make(chan *loggedConn, 16),
	}
}

// hold makes dials to addr wait until the returned function is called.
func (d *dialLog) hold(addr string) (release func()) {
	gate := make(chan struct{})
	d.mu.Lock()
	d.gates[addr] = gate
	d.mu.Unlock()
	return func() {
		d.mu.Lock()
		delete(d.gates, addr)
		d.mu.Unlock()
		close(gate)
	}
}

// holdClose makes the Close of every connection dialed to addr from now on
// wait until the returned function is called; the test's cleanup calls it
// too, so that nothing is left blocked.
func (d *dialLog) holdClose(t *testing.T, addr string) (release func()) {
	gate := make(chan struct{})
	d.mu.Lock()
	d.closeGates[addr] = gate
	d.mu.Unlock()
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// failNext makes the next dial to addr fail.
func (d *dialLog) failNext(addr string) {
	d.mu.Lock()
	d.fails[addr]++
	d.mu.Unlock()
}

func (d *dialLog) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.mu.Lock()
	d.calls = append(d.calls, addr)
	gate := d.gates[addr]
	d.mu.Unlock()
	d.started <- addr
	if gate != nil {
		<-gate
	}
	d.mu.Lock()
	fail := d.fails[addr] > 0
	if fail {
		d.fails[addr]--
	}
	d.mu.Unlock()
	if fail {
		d.returned <- nil
		return nil, errors.New("dialLog: scripted dial failure")
	}
	raw, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		d.returned <- nil
		return nil, err
	}
	lc := &loggedConn{Conn: raw, addr: addr, closed: make(chan struct{})}
	d.mu.Lock()
	lc.closeGate = d.closeGates[addr]
	d.conns = append(d.conns, lc)
	d.mu.Unlock()
	d.returned <- lc
	return lc, nil
}

func (d *dialLog) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.calls)
}

// open lists the returned connections nobody has closed.
func (d *dialLog) open() []*loggedConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []*loggedConn
	for _, c := range d.conns {
		if !c.isClosed() {
			out = append(out, c)
		}
	}
	return out
}

func await[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	return awaitWithin(t, 5*time.Second, what, ch)
}

func awaitWithin[T any](t *testing.T, d time.Duration, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(d):
		t.Fatalf("timed out waiting %v for %s", d, what)
		panic("unreachable")
	}
}

// requireAllClosed waits for every connection the dialer returned to be
// closed: after the interceptor Conn's Close, none may be left.
func (d *dialLog) requireAllClosed(t *testing.T) {
	t.Helper()
	d.mu.Lock()
	conns := append([]*loggedConn(nil), d.conns...)
	d.mu.Unlock()
	for _, c := range conns {
		await(t, "a dialed connection to "+c.addr+" to be closed", c.closed)
	}
}

// meadClient wraps a raw connection to primary in the MEAD client
// interceptor with d as its dialer.
func meadClient(t *testing.T, d *dialLog, primary string) (*ClientManager, *interceptor.Conn, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New()
	cm, err := NewClientManager(ClientConfig{Scheme: MeadMessage, Dial: d.Dial, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", primary)
	if err != nil {
		t.Fatal(err)
	}
	conn := cm.WrapClientConn(raw).(*interceptor.Conn)
	t.Cleanup(func() { _ = conn.Close() })
	return cm, conn, tel
}

func plainServer(t *testing.T) *fakeServer {
	t.Helper()
	return fakeReplyServer(t, func(_ int, hdr giop.RequestHeader) [][]byte {
		return [][]byte{okReply(hdr.RequestID)}
	})
}

// scriptedPrimary answers request n with frames[n] followed by the regular
// reply; requests past the script get the reply alone.
func scriptedPrimary(t *testing.T, frames ...[]byte) *fakeServer {
	t.Helper()
	return fakeReplyServer(t, func(n int, hdr giop.RequestHeader) [][]byte {
		if n < len(frames) && frames[n] != nil {
			return [][]byte{frames[n], okReply(hdr.RequestID)}
		}
		return [][]byte{okReply(hdr.RequestID)}
	})
}

func notice(addr string) []byte   { return giop.EncodeMeadNotice(addr, sampleIOR(0)) }
func failover(addr string) []byte { return giop.EncodeMeadFailover(addr, sampleIOR(0)) }

// invoke makes one round trip and reports anything but a normal reply to
// request id; unlike doInvoke it may run off the test's goroutine.
func invoke(conn net.Conn, id uint32) error {
	rh, err := roundTrip(conn, id)
	if err == nil && (rh.Status != giop.ReplyNoException || rh.RequestID != id) {
		err = fmt.Errorf("reply %d = %+v", id, rh)
	}
	return err
}

func requireOK(t *testing.T, conn net.Conn, id uint32) {
	t.Helper()
	if err := invoke(conn, id); err != nil {
		t.Fatal(err)
	}
}

func eventKinds(tel *telemetry.Telemetry) []telemetry.EventKind {
	var kinds []telemetry.EventKind
	for _, ev := range tel.Events() {
		kinds = append(kinds, ev.Kind)
	}
	return kinds
}

// TestNoticeReplyDoesNotWaitForTheDial: the reply that carries a NOTICE
// reaches the ORB while the standby's dial is still blocked.
func TestNoticeReplyDoesNotWaitForTheDial(t *testing.T) {
	backup := plainServer(t)
	primary := scriptedPrimary(t, notice(backup.Addr()))
	d := newDialLog()
	release := d.hold(backup.Addr())
	cm, conn, _ := meadClient(t, d, primary.Addr())

	requireOK(t, conn, 1) // returns with the dial still held
	if got := await(t, "the standby dial to start", d.started); got != backup.Addr() {
		t.Fatalf("dialed %q, want the noticed %q", got, backup.Addr())
	}
	requireOK(t, conn, 2) // and the primary keeps serving meanwhile
	if cm.Failovers() != 0 {
		t.Fatalf("a NOTICE moved the connection: failovers = %d", cm.Failovers())
	}
	release()
	if lc := await(t, "the standby dial to return", d.returned); lc == nil {
		t.Fatal("standby dial failed")
	}
	_ = conn.Close()
	d.requireAllClosed(t)
}

// TestHandOffDialsNothing is the dial-count guard of `make perf-guards`: with
// a standby ready for the address the FAILOVER frame names, the hand-off makes
// no Dial call — the only one was made when the NOTICE arrived.
func TestHandOffDialsNothing(t *testing.T) {
	backup := plainServer(t)
	primary := scriptedPrimary(t, notice(backup.Addr()), nil, failover(backup.Addr()))
	d := newDialLog()
	cm, conn, tel := meadClient(t, d, primary.Addr())

	requireOK(t, conn, 1)
	standby := await(t, "the standby dial to return", d.returned)
	// The event, not the counter: the counter moves first, and the trace is
	// compared below.
	waitFor(t, "the standby-ready event", func() bool {
		return slices.Contains(eventKinds(tel), telemetry.EvStandbyReady)
	})
	requireOK(t, conn, 2) // the primary sends a NOTICE once, not per reply
	if d.count() != 1 {
		t.Fatalf("%d dials before the hand-off, want 1 (the standby)", d.count())
	}

	requireOK(t, conn, 3) // FAILOVER + reply: swap only
	if d.count() != 1 {
		t.Fatalf("the hand-off dialed: %d Dial calls in all, want 1", d.count())
	}
	if conn.Under() != net.Conn(standby) {
		t.Fatal("the hand-off did not swap the standby in")
	}
	requireOK(t, conn, 4) // served by the backup
	if cm.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", cm.Failovers())
	}
	got := eventKinds(tel)
	want := []telemetry.EventKind{telemetry.EvStandbyReady, telemetry.EvMeadFailover, telemetry.EvConnSwapped}
	if !slices.Equal(got, want) {
		t.Fatalf("recovery trace = %v, want %v", got, want)
	}
	_ = conn.Close()
	d.requireAllClosed(t)
}

// TestHandOffWithStandbyInFlight: a FAILOVER frame that arrives while the
// standby's dial is still in flight waits for that dial and makes no second
// one, so the reply behind the frame cannot come up before the dial returns.
func TestHandOffWithStandbyInFlight(t *testing.T) {
	backup := plainServer(t)
	primary := scriptedPrimary(t, notice(backup.Addr()), failover(backup.Addr()))
	d := newDialLog()
	release := d.hold(backup.Addr())
	cm, conn, _ := meadClient(t, d, primary.Addr())

	requireOK(t, conn, 1)
	await(t, "the standby dial to start", d.started)
	var released atomic.Bool
	held := make(chan error, 1)
	go func() {
		err := invoke(conn, 2) // FAILOVER + reply
		if err == nil && !released.Load() {
			err = errors.New("the hand-off completed before its only transport was dialed")
		}
		held <- err
	}()
	released.Store(true)
	release()
	if err := await(t, "the held hand-off", held); err != nil {
		t.Fatal(err)
	}
	requireOK(t, conn, 3)
	if d.count() != 1 || cm.Failovers() != 1 || len(d.open()) != 1 {
		t.Fatalf("dials = %d, failovers = %d, open = %d; want 1, 1, 1", d.count(), cm.Failovers(), len(d.open()))
	}
	_ = conn.Close()
	d.requireAllClosed(t)
}

// TestHandOffAfterFailedStandby: a warm-up that failed, before the FAILOVER
// frame or under it, costs the hand-off nothing but the paper's own dial, and
// leaves one connection open: the one swapped in.
func TestHandOffAfterFailedStandby(t *testing.T) {
	t.Run("failed before the hand-off", func(t *testing.T) {
		backup := plainServer(t)
		primary := scriptedPrimary(t, notice(backup.Addr()), failover(backup.Addr()))
		d := newDialLog()
		d.failNext(backup.Addr())
		cm, conn, _ := meadClient(t, d, primary.Addr())

		requireOK(t, conn, 1)
		if lc := await(t, "the standby dial to return", d.returned); lc != nil {
			t.Fatal("scripted failure did not fail")
		}
		requireOK(t, conn, 2)
		if d.count() != 2 || cm.Failovers() != 1 || len(d.open()) != 1 {
			t.Fatalf("dials = %d, failovers = %d, open = %d; want 2, 1, 1", d.count(), cm.Failovers(), len(d.open()))
		}
		requireOK(t, conn, 3)
		_ = conn.Close()
		d.requireAllClosed(t)
	})
	t.Run("fails under the hand-off", func(t *testing.T) {
		backup := plainServer(t)
		primary := scriptedPrimary(t, notice(backup.Addr()), failover(backup.Addr()))
		d := newDialLog()
		d.failNext(backup.Addr())
		release := d.hold(backup.Addr())
		cm, conn, _ := meadClient(t, d, primary.Addr())

		requireOK(t, conn, 1)
		await(t, "the standby dial to start", d.started)
		held := make(chan error, 1)
		go func() { held <- invoke(conn, 2) }()
		release()
		if err := await(t, "the hand-off behind the failing dial", held); err != nil {
			t.Fatal(err)
		}
		if d.count() != 2 || cm.Failovers() != 1 || len(d.open()) != 1 {
			t.Fatalf("dials = %d, failovers = %d, open = %d; want 2, 1, 1", d.count(), cm.Failovers(), len(d.open()))
		}
		requireOK(t, conn, 3)
		_ = conn.Close()
		d.requireAllClosed(t)
	})
}

// TestFailoverToAnotherTargetDropsStandby: notice(r2) then failover(r3) with
// no second notice closes r2's standby and dials r3 once.
func TestFailoverToAnotherTargetDropsStandby(t *testing.T) {
	r2, r3 := plainServer(t), plainServer(t)
	primary := scriptedPrimary(t, notice(r2.Addr()), failover(r3.Addr()))
	d := newDialLog()
	cm, conn, tel := meadClient(t, d, primary.Addr())

	requireOK(t, conn, 1)
	stale := await(t, "the standby dial to return", d.returned)
	waitFor(t, "standby-ready", func() bool { return tel.StandbysReady.Value() == 1 })
	requireOK(t, conn, 2)
	await(t, "r2's standby to be closed", stale.closed)
	fresh := await(t, "the dial to r3", d.returned)
	if d.count() != 2 || fresh == nil || fresh.addr != r3.Addr() {
		t.Fatalf("dials = %d, the second to %v; want one dial to r3 after the standby's", d.count(), fresh)
	}
	requireOK(t, conn, 3)
	if cm.Failovers() != 1 || conn.Under() != net.Conn(fresh) {
		t.Fatalf("failovers = %d, on r3 = %v", cm.Failovers(), conn.Under() == net.Conn(fresh))
	}
	_ = conn.Close()
	d.requireAllClosed(t)
}

// TestReplacedHandOffTargetClosesBehind, a guard of `make perf-guards`: a
// second FAILOVER frame ahead of the reply replaces the target the first one
// put on hold, and the replaced transport is closed behind the reading
// goroutine — the reply reaches the ORB while that Close is blocked, and the
// close runs once it is let through.
func TestReplacedHandOffTargetClosesBehind(t *testing.T) {
	r2, r3 := plainServer(t), plainServer(t)
	primary := fakeReplyServer(t, func(n int, hdr giop.RequestHeader) [][]byte {
		if n == 0 {
			return [][]byte{failover(r2.Addr()), failover(r3.Addr()), okReply(hdr.RequestID)}
		}
		return [][]byte{okReply(hdr.RequestID)}
	})
	d := newDialLog()
	cm, conn, _ := meadClient(t, d, primary.Addr())
	release := d.holdClose(t, r2.Addr())

	replied := make(chan error, 1)
	go func() { replied <- invoke(conn, 1) }()
	if err := awaitWithin(t, time.Second, "the reply behind the replacing FAILOVER", replied); err != nil {
		t.Fatal(err)
	}
	replaced := await(t, "the dial to r2", d.returned)
	toR3 := await(t, "the dial to r3", d.returned)
	release()
	awaitWithin(t, time.Second, "the replaced target to be closed", replaced.closed)
	requireOK(t, conn, 2)
	if cm.Failovers() != 1 || conn.Under() != net.Conn(toR3) {
		t.Fatalf("failovers = %d, on r3 = %v; want 1, true", cm.Failovers(), conn.Under() == net.Conn(toR3))
	}
	_ = conn.Close()
	d.requireAllClosed(t)
}

// TestGivenUpStandbyClosesBehind, a guard of `make perf-guards`: a NOTICE
// naming another replica gives the ready standby up, and closes it behind the
// reading goroutine — the reply behind the NOTICE reaches the ORB while that
// Close is blocked, and the close runs once it is let through.
func TestGivenUpStandbyClosesBehind(t *testing.T) {
	r2, r3 := plainServer(t), plainServer(t)
	primary := scriptedPrimary(t, notice(r2.Addr()), notice(r3.Addr()))
	d := newDialLog()
	_, conn, tel := meadClient(t, d, primary.Addr())
	release := d.holdClose(t, r2.Addr())

	requireOK(t, conn, 1)
	stale := await(t, "the standby dial to r2", d.returned)
	waitFor(t, "standby-ready", func() bool { return tel.StandbysReady.Value() == 1 })
	replied := make(chan error, 1)
	go func() { replied <- invoke(conn, 2) }()
	if err := awaitWithin(t, time.Second, "the reply behind the second NOTICE", replied); err != nil {
		t.Fatal(err)
	}
	release()
	awaitWithin(t, time.Second, "the given-up standby to be closed", stale.closed)
	if fresh := await(t, "the standby dial to r3", d.returned); fresh == nil || fresh.addr != r3.Addr() {
		t.Fatalf("second standby = %+v, want r3 at %s", fresh, r3.Addr())
	}
	_ = conn.Close()
	d.requireAllClosed(t)
}

// TestCloseReleasesDialedTransports: whatever was dialed for a connection and
// not swapped in is closed when the connection is — a ready standby, a
// standby whose dial is still in flight when Close runs, and the fail-over
// target held between a FAILOVER frame and the reply behind it.
func TestCloseReleasesDialedTransports(t *testing.T) {
	t.Run("ready standby", func(t *testing.T) {
		backup := plainServer(t)
		primary := scriptedPrimary(t, notice(backup.Addr()))
		d := newDialLog()
		_, conn, tel := meadClient(t, d, primary.Addr())
		requireOK(t, conn, 1)
		waitFor(t, "standby-ready", func() bool { return tel.StandbysReady.Value() == 1 })
		_ = conn.Close()
		d.requireAllClosed(t)
	})
	t.Run("standby dial in flight", func(t *testing.T) {
		backup := plainServer(t)
		primary := scriptedPrimary(t, notice(backup.Addr()))
		d := newDialLog()
		release := d.hold(backup.Addr())
		_, conn, tel := meadClient(t, d, primary.Addr())
		requireOK(t, conn, 1)
		await(t, "the standby dial to start", d.started)
		_ = conn.Close()
		release()
		if lc := await(t, "the standby dial to return", d.returned); lc == nil {
			t.Fatal("standby dial failed")
		}
		d.requireAllClosed(t)
		if n := tel.StandbysReady.Value(); n != 0 {
			t.Fatalf("standby-ready recorded %d times for a closed connection", n)
		}
	})
	t.Run("fail-over target awaiting its reply", func(t *testing.T) {
		backup := plainServer(t)
		// The FAILOVER frame arrives; the reply behind it never does.
		primary := fakeReplyServer(t, func(_ int, hdr giop.RequestHeader) [][]byte {
			return [][]byte{failover(backup.Addr())}
		})
		d := newDialLog()
		_, conn, tel := meadClient(t, d, primary.Addr())
		req := giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
			RequestID: 1, ResponseExpected: true,
			ObjectKey: giop.MakeObjectKey("timeofday", "clock"), Operation: "time_of_day",
		}, nil)
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		readDone := make(chan error, 1)
		go func() {
			_, _, err := giop.ReadMessage(conn)
			readDone <- err
		}()
		waitFor(t, "the FAILOVER frame to be consumed", func() bool { return tel.MeadFailovers.Value() == 1 })
		_ = conn.Close()
		if err := await(t, "the blocked read to fail", readDone); err == nil {
			t.Fatal("read succeeded on a closed connection")
		}
		d.requireAllClosed(t)
	})
}

// --- server side ---

// managedServer serves plain replies through node's server-side interceptor,
// as a replica's ORB does, and counts the requests it answered.
type managedServer struct {
	ln     net.Listener
	mu     sync.Mutex
	served int
}

func (s *managedServer) Addr() string { return s.ln.Addr().String() }

func (s *managedServer) Served() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

func startManagedServer(t *testing.T, m *Manager) *managedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &managedServer{ln: ln}
	var conns sync.WaitGroup
	t.Cleanup(func() {
		_ = ln.Close()
		conns.Wait()
	})
	conns.Add(1)
	go func() {
		defer conns.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			conn := m.WrapServerConn(raw)
			t.Cleanup(func() { _ = conn.Close() })
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer conn.Close()
				for {
					h, body, err := giop.ReadMessage(conn)
					if err != nil {
						return
					}
					hdr, _, err := giop.DecodeRequest(h.Order, body)
					if err != nil {
						return
					}
					s.mu.Lock()
					s.served++
					s.mu.Unlock()
					if _, err := conn.Write(okReply(hdr.RequestID)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return s
}

// serverPipe is one server-side connection of m whose far end the test reads.
type serverPipe struct {
	t    *testing.T
	peer net.Conn
	conn net.Conn
}

func newServerPipe(t *testing.T, m *Manager) *serverPipe {
	t.Helper()
	peer, under := net.Pipe()
	conn := m.WrapServerConn(under)
	t.Cleanup(func() { _ = peer.Close(); _ = conn.Close() })
	return &serverPipe{t: t, peer: peer, conn: conn}
}

// reply sends one reply through the server-side interceptor and returns the
// MEAD frames that left ahead of it.
func (p *serverPipe) reply(id uint32) []giop.MeadMessage {
	p.t.Helper()
	written := make(chan error, 1)
	go func() {
		_, err := p.conn.Write(okReply(id))
		written <- err
	}()
	var mead []giop.MeadMessage
	for {
		f, err := readFrame(p.peer)
		if err != nil {
			p.t.Fatal(err)
		}
		if f.Kind == giop.FrameGIOP {
			break
		}
		mead = append(mead, f.Mead)
	}
	if err := await(p.t, "the reply's write to return", written); err != nil {
		p.t.Fatal(err)
	}
	return mead
}

// readFrame reads one whole frame off r, a byte at a time so that nothing
// behind it is consumed.
func readFrame(r io.Reader) (giop.Frame, error) {
	buf := make([]byte, 0, giop.HeaderLen)
	for {
		if f, n, err := giop.FrameAt(buf); err != nil || n > 0 {
			return f, err
		}
		buf = append(buf, 0)
		if _, err := io.ReadFull(r, buf[len(buf)-1:]); err != nil {
			return giop.Frame{}, err
		}
	}
}

func requireMead(t *testing.T, got []giop.MeadMessage, typ giop.MeadType, addr string) {
	t.Helper()
	if len(got) != 1 || got[0].Type != typ {
		t.Fatalf("MEAD frames ahead of the reply = %+v, want one of type %d", got, typ)
	}
	target, _, err := giop.DecodeMeadFailover(got[0].Payload)
	if err != nil || target != addr {
		t.Fatalf("MEAD frame names %q (%v), want %q", target, err, addr)
	}
}

// TestServerSendsOneNoticePerConnection: below T1 nothing; from T1 every
// connection is told once whom it will be handed to; at T2 the FAILOVER frame
// takes over; and only the MEAD scheme does any of it.
func TestServerSendsOneNoticePerConnection(t *testing.T) {
	h := startHub(t)
	b := budgetAt(t, 0)
	n1 := newManagerNode(t, h, "r1", MeadMessage, b)
	n2 := newManagerNode(t, h, "r2", MeadMessage, budgetAt(t, 0))
	_ = n1.m.AnnounceSelf("addr-r1", []giop.IOR{sampleIOR(7001)})
	_ = n2.m.AnnounceSelf("addr-r2", []giop.IOR{sampleIOR(7002)})
	waitFor(t, "membership", func() bool { return len(n1.m.Replicas()) == 2 })

	first, second := newServerPipe(t, n1.m), newServerPipe(t, n1.m)
	if got := first.reply(1); len(got) != 0 {
		t.Fatalf("MEAD frames below T1: %+v", got)
	}
	b.Consume(850) // between T1 and T2
	requireMead(t, first.reply(2), giop.MeadNotice, "addr-r2")
	for id := uint32(3); id < 6; id++ {
		if got := first.reply(id); len(got) != 0 {
			t.Fatalf("reply %d repeated the notice: %+v", id, got)
		}
	}
	requireMead(t, second.reply(1), giop.MeadNotice, "addr-r2")
	if got := second.reply(2); len(got) != 0 {
		t.Fatalf("second connection noticed twice: %+v", got)
	}
	if n1.m.Migrations() != 0 {
		t.Fatalf("notices counted as migrations: %d", n1.m.Migrations())
	}
	b.Consume(100) // past T2
	requireMead(t, first.reply(6), giop.MeadFailover, "addr-r2")

	lf := newManagerNode(t, h, "r3", LocationForward, budgetAt(t, 0.85))
	if got := newServerPipe(t, lf.m).reply(1); len(got) != 0 {
		t.Fatalf("LOCATION_FORWARD scheme sent MEAD frames: %+v", got)
	}
}

// TestHandOffAcrossViewChange runs both halves against each other over an
// in-process hub: notice(r2), r2 leaves the view, notice(r3), failover(r3).
// The client ends on r3 having dialed nothing inside the hand-off, r2's
// standby is closed, and every reply it saw was a normal one.
func TestHandOffAcrossViewChange(t *testing.T) {
	h := startHub(t)
	b := budgetAt(t, 0)
	n1 := newManagerNode(t, h, "r1", MeadMessage, b)
	n2 := newManagerNode(t, h, "r2", MeadMessage, budgetAt(t, 0))
	n3 := newManagerNode(t, h, "r3", MeadMessage, budgetAt(t, 0))
	s1, s2, s3 := startManagedServer(t, n1.m), startManagedServer(t, n2.m), startManagedServer(t, n3.m)
	_ = n1.m.AnnounceSelf(s1.Addr(), []giop.IOR{sampleIOR(7001)})
	_ = n2.m.AnnounceSelf(s2.Addr(), []giop.IOR{sampleIOR(7002)})
	_ = n3.m.AnnounceSelf(s3.Addr(), []giop.IOR{sampleIOR(7003)})
	waitFor(t, "membership", func() bool { return len(n1.m.Replicas()) == 3 })

	d := newDialLog()
	cm, conn, tel := meadClient(t, d, s1.Addr())
	requireOK(t, conn, 1)
	if d.count() != 0 {
		t.Fatalf("%d dials below T1", d.count())
	}

	b.Consume(850) // T1: notice(r2)
	requireOK(t, conn, 2)
	toR2 := await(t, "the standby dial to r2", d.returned)
	waitFor(t, "standby-ready for r2", func() bool { return tel.StandbysReady.Value() == 1 })
	if toR2 == nil || toR2.addr != s2.Addr() {
		t.Fatalf("first standby = %+v, want r2 at %s", toR2, s2.Addr())
	}

	_ = n2.member.Close() // r2 leaves the view: notice(r3)
	waitFor(t, "r1 to see the view without r2", func() bool {
		next, ok := n1.m.NextReplica()
		return ok && next.Name == "r3"
	})
	requireOK(t, conn, 3)
	await(t, "r2's standby to be closed", toR2.closed)
	toR3 := await(t, "the standby dial to r3", d.returned)
	waitFor(t, "standby-ready for r3", func() bool { return tel.StandbysReady.Value() == 2 })
	if toR3 == nil || toR3.addr != s3.Addr() {
		t.Fatalf("second standby = %+v, want r3 at %s", toR3, s3.Addr())
	}

	b.Consume(100) // T2: failover(r3)
	dialsBefore := d.count()
	requireOK(t, conn, 4)
	if d.count() != dialsBefore {
		t.Fatalf("the hand-off made %d Dial calls", d.count()-dialsBefore)
	}
	if conn.Under() != net.Conn(toR3) || cm.Failovers() != 1 {
		t.Fatalf("on r3's standby = %v, failovers = %d", conn.Under() == net.Conn(toR3), cm.Failovers())
	}
	requireOK(t, conn, 5)
	if s1.Served() != 4 || s2.Served() != 0 || s3.Served() != 1 {
		t.Fatalf("served r1/r2/r3 = %d/%d/%d, want 4/0/1", s1.Served(), s2.Served(), s3.Served())
	}
	_ = conn.Close()
	d.requireAllClosed(t)
}
