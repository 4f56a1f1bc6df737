package orb

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
	"mead/internal/netfault"
)

func pooledObjectFor(t *testing.T, s *ServerORB) (*ClientORB, *ObjectRef) {
	t.Helper()
	ior, err := s.IORFor(typeID, clockKey)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(WithConnectionPool())
	t.Cleanup(func() { _ = c.Close() })
	return c, c.Object(ior)
}

// invokeEcho round-trips s through the servant's echo operation.
func invokeEcho(o *ObjectRef, s string) (string, error) {
	var got string
	err := o.Invoke("echo", func(e *cdr.Encoder) {
		e.WriteString(s)
	}, func(d *cdr.Decoder) error {
		v, err := d.ReadString()
		got = v
		return err
	})
	return got, err
}

// TestPooledConcurrentStress hammers one shared connection from many
// goroutines (run under -race); each invocation checks its own arithmetic
// result so cross-wired replies would be detected.
func TestPooledConcurrentStress(t *testing.T) {
	s, _ := startServer(t)
	c, o := pooledObjectFor(t, s)

	const goroutines = 16
	const perG = 50
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				a, b := uint64(g*1000+i), uint64(i*7+1)
				var sum uint64
				err := o.Invoke("sum64", func(e *cdr.Encoder) {
					e.WriteULongLong(a)
					e.WriteULongLong(b)
				}, func(d *cdr.Decoder) error {
					v, err := d.ReadULongLong()
					sum = v
					return err
				})
				if err != nil || sum != a+b {
					failures.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d goroutines failed", n)
	}
	if got := c.PooledConnections(); got != 1 {
		t.Fatalf("pooled connections = %d, want 1", got)
	}
}

// TestPooledSharedConnection asserts that many ObjectRefs to the same
// replica share one TCP connection.
func TestPooledSharedConnection(t *testing.T) {
	s, _ := startServer(t)
	ior, err := s.IORFor(typeID, clockKey)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(WithConnectionPool())
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		o := c.Object(ior)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := invokeTime(o); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := s.ActiveConnections(); got != 1 {
		t.Fatalf("server sees %d connections, want 1", got)
	}
	if got := c.PooledConnections(); got != 1 {
		t.Fatalf("client pools %d connections, want 1", got)
	}
}

// TestPooledLocationForward verifies the pooled retransmission path: a stub
// answers LOCATION_FORWARD pointing at the real server, and the invocation
// transparently lands there.
func TestPooledLocationForward(t *testing.T) {
	s, _ := startServer(t)
	realIOR, err := s.IORFor(typeID, clockKey)
	if err != nil {
		t.Fatal(err)
	}

	staleIOR := stubServer(t, func(_ giop.IOR, conn net.Conn) {
		for {
			hdr, ok := readRequest(conn)
			if !ok {
				return
			}
			reply := giop.EncodeReply(cdr.BigEndian,
				giop.ReplyHeader{RequestID: hdr.RequestID, Status: giop.ReplyLocationForward},
				func(e *cdr.Encoder) { giop.EncodeIOR(e, realIOR) })
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	})
	c := NewClient(WithConnectionPool())
	defer c.Close()
	o := c.Object(staleIOR)
	if _, err := invokeTime(o); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.Forwards != 1 {
		t.Fatalf("forwards = %d, want 1", st.Forwards)
	}
	// The reference is now rebound: later invocations go straight to the
	// real replica over the (second) pooled connection.
	if _, err := invokeTime(o); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.Forwards != 1 {
		t.Fatalf("forwards after rebind = %d, want 1", st.Forwards)
	}
}

// TestPooledFailAllInFlight kills the server while several requests are in
// flight on the shared connection; every caller must observe COMM_FAILURE
// promptly instead of hanging.
func TestPooledFailAllInFlight(t *testing.T) {
	const n = 4
	// Swallow n requests without replying, then drop the connection.
	ior := stubServer(t, func(_ giop.IOR, conn net.Conn) {
		for i := 0; i < n; i++ {
			if _, ok := readRequest(conn); !ok {
				return
			}
		}
	})
	c := NewClient(WithConnectionPool())
	defer c.Close()
	o := c.Object(ior)

	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := invokeTime(o)
			done <- err
		}()
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if !isCommFailure(err) {
				t.Fatalf("caller error = %v, want COMM_FAILURE", err)
			}
		case <-deadline:
			t.Fatal("in-flight callers still blocked after connection death")
		}
	}
	if got := c.PooledConnections(); got != 0 {
		t.Fatalf("dead connection still pooled (%d)", got)
	}
}

// TestPooledClientClosed asserts that invocations after ClientORB.Close fail
// fast with a typed error.
func TestPooledClientClosed(t *testing.T) {
	s, _ := startServer(t)
	c, o := pooledObjectFor(t, s)
	if _, err := invokeTime(o); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if _, err := invokeTime(o); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v, want ErrClientClosed", err)
	}
}

// TestPooledCutChaos cuts the shared connection mid-burst (and wire-
// duplicates one reply earlier, exercising the demultiplexer's stale-reply
// drop). Callers in flight at the cut settle with COMM_FAILURE, everyone
// else keeps getting byte-correct echoes, and the pool redials on demand.
// Run under -race.
func TestPooledCutChaos(t *testing.T) {
	const callers = 64
	const perCaller = 5

	s, _ := startServer(t)
	addr := s.Addr()
	inj, err := netfault.NewInjector(7, netfault.Plan{
		{Kind: netfault.DuplicateReply, At: 20, Addr: addr},
		{Kind: netfault.CutAfterRequest, At: 150, Addr: addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	ior, err := giop.NewIORForAddr(typeID, addr, clockKey)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(WithConnectionPool(), WithDialer(inj.DialTimeout))
	defer c.Close()
	o := c.Object(ior)

	var wg sync.WaitGroup
	var failures, successes atomic.Int64
	errCh := make(chan error, callers*perCaller)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perCaller; k++ {
				want := fmt.Sprintf("chaos-%d-%d", i, k)
				got, err := invokeEcho(o, want)
				switch {
				case err == nil && got == want:
					successes.Add(1)
				case err == nil:
					errCh <- fmt.Errorf("caller %d call %d: cross-wired reply %q != %q", i, k, got, want)
				default:
					if !isCommFailure(err) {
						errCh <- fmt.Errorf("caller %d call %d: %v (want COMM_FAILURE)", i, k, err)
					}
					failures.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if inj.FiredTotal("cut-after-request") == 0 {
		t.Fatal("chaos plan never fired the cut")
	}
	if inj.FiredTotal("duplicate-reply") == 0 {
		t.Fatal("chaos plan never duplicated a reply")
	}
	f := failures.Load()
	if f == 0 || f > callers {
		t.Fatalf("%d invocations failed; want between 1 and the %d that can be in flight at one cut", f, callers)
	}
	if got, want := successes.Load()+f, int64(callers*perCaller); got != want {
		t.Fatalf("accounted invocations = %d, want %d", got, want)
	}
	if got := c.PooledConnections(); got != 1 {
		t.Fatalf("pooled connections after recovery = %d, want 1", got)
	}
}

// TestReplyChannelsAreReused: a connection's reply channels come from its
// free list and go back to it, whoever did the reading. 64 callers are in
// flight at once, three times over. The stub answers the first two rounds in
// an order of its choosing, which decides how the read side travels: answered
// in arrival order, each caller reads only its own reply and hands the read
// side on, 63 times a round; in reverse, the first caller reads and delivers
// everyone's before its own and nobody takes over. Round two must find round
// one's 64 channels on the list, all empty — a hand-over left behind in one
// would make that channel's next caller read alongside the real reader — and
// get its own payloads back. Round three dies with one caller reading and 63
// waiting: nobody stays blocked, everyone gets exactly one COMM_FAILURE, and
// the same 64 channels are back, empty.
func TestReplyChannelsAreReused(t *testing.T) {
	const n = 64
	orders := []struct {
		name string
		at   func(i int) int // the i-th reply answers the at(i)-th request to arrive
	}{
		{"replies in arrival order", func(i int) int { return i }},
		{"replies in reverse", func(i int) int { return n - 1 - i }},
		{"odd arrivals answered first", func(i int) int { return (2*i + 1) % (n + 1) }},
	}
	for _, order := range orders {
		t.Run(order.name, func(t *testing.T) {
			ior := stubServer(t, func(_ giop.IOR, conn net.Conn) {
				for round := 0; round < 3; round++ {
					type req struct {
						id  uint32
						arg string
					}
					reqs := make([]req, 0, n)
					for len(reqs) < n {
						h, body, err := giop.ReadMessage(conn)
						if err != nil {
							return
						}
						hdr, args, err := giop.DecodeRequest(h.Order, body)
						if err != nil {
							return
						}
						arg, _ := args.ReadString()
						reqs = append(reqs, req{hdr.RequestID, arg})
					}
					if round == 2 {
						return // swallow the round and drop the connection
					}
					for i := range reqs {
						r := reqs[order.at(i)]
						reply := giop.EncodeReply(cdr.BigEndian,
							giop.ReplyHeader{RequestID: r.id, Status: giop.ReplyNoException},
							func(e *cdr.Encoder) { e.WriteString(r.arg) })
						if _, err := conn.Write(reply); err != nil {
							return
						}
					}
				}
			})
			c := NewClient(WithConnectionPool())
			defer c.Close()
			o := c.Object(ior)
			round := func(r int) []error {
				errs := make([]error, n)
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						want := fmt.Sprintf("round-%d-caller-%d", r, i)
						got, err := invokeEcho(o, want)
						if err == nil && got != want {
							err = fmt.Errorf("caller %d got %q, want %q", i, got, want)
						}
						errs[i] = err
					}()
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("round %d: callers still blocked", r)
				}
				return errs
			}
			freeList := func(mc *muxConn) map[chan muxReply]bool {
				mc.mu.Lock()
				defer mc.mu.Unlock()
				set := make(map[chan muxReply]bool, len(mc.free))
				for _, ch := range mc.free {
					if len(ch) != 0 {
						t.Errorf("a reply channel on the free list holds %d replies", len(ch))
					}
					set[ch] = true
				}
				return set
			}

			var first map[chan muxReply]bool
			var mc *muxConn
			for r := 0; r < 2; r++ {
				for _, err := range round(r) {
					if err != nil {
						t.Fatal(err)
					}
				}
				if r == 0 {
					mc = o.mc
					first = freeList(mc)
				}
			}
			if len(first) != n {
				t.Fatalf("%d channels on the free list after %d concurrent calls", len(first), n)
			}
			for _, err := range round(2) {
				if !isCommFailure(err) {
					t.Fatalf("caller error = %v, want COMM_FAILURE", err)
				}
			}
			last := freeList(mc)
			if len(last) != n {
				t.Fatalf("%d channels on the free list after the connection failed, want the same %d", len(last), n)
			}
			for ch := range last {
				if !first[ch] {
					t.Fatal("a call allocated a reply channel while the free list held one")
				}
			}
			mc.mu.Lock()
			reading, inflight := mc.reader != nil, mc.inflight
			mc.mu.Unlock()
			if reading || inflight != 0 {
				t.Fatalf("after the last caller left: reading=%v inflight=%d", reading, inflight)
			}
		})
	}
}

// TestSharedConnectionHolders: a shared connection is closed by the last
// reference to let go of it, and not before the requests already on it have
// their answers.
func TestSharedConnectionHolders(t *testing.T) {
	closed := make(chan int, 4)
	s, servant := startServer(t, WithConnClosedHook(func(active int) { closed <- active }))
	gate := make(chan struct{})
	s.Register(giop.MakeObjectKey("timeofday", "slow"), ServantFunc(func(op string, args *cdr.Decoder, result *cdr.Encoder) error {
		<-gate
		return servant.Invoke(op, args, result)
	}))
	c := NewClient(WithConnectionPool())
	defer c.Close()
	fast, _ := s.IORFor(typeID, clockKey)
	slow, _ := s.IORFor(typeID, giop.MakeObjectKey("timeofday", "slow"))
	o1, o2 := c.Object(fast), c.Object(slow)
	if _, err := invokeTime(o1); err != nil {
		t.Fatal(err)
	}
	inFlight := make(chan error, 1)
	go func() {
		_, err := invokeTime(o2)
		inFlight <- err
	}()
	// o2's request is on the connection once the server has dispatched it.
	for s.Served() < 2 {
		time.Sleep(time.Millisecond)
	}

	_ = o1.Close()
	if got := c.PooledConnections(); got != 1 {
		t.Fatalf("%d pooled connections after one of two holders let go, want 1", got)
	}
	_ = o2.Close() // the last holder, with its own request still unanswered
	if got := c.PooledConnections(); got != 0 {
		t.Fatalf("%d pooled connections after the last holder let go, want 0", got)
	}
	select {
	case <-closed:
		t.Fatal("the connection was closed under a request that had no answer yet")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-inFlight; err != nil {
		t.Fatalf("the request in flight when its reference let go: %v", err)
	}
	select {
	case active := <-closed:
		if active != 0 {
			t.Fatalf("server still counts %d active connections", active)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the last request off the connection did not close it")
	}
	// A reference that let go takes a connection again on its next call.
	if _, err := invokeTime(o1); err != nil {
		t.Fatal(err)
	}
	if got := c.PooledConnections(); got != 1 {
		t.Fatalf("%d pooled connections after a released reference called again, want 1", got)
	}
}

// TestForwardAwayLeaksNothing is the leak guard for connections nobody reads
// while they are idle: a pooled reference is forwarded back and forth between
// two servers 200 times, as under LOCATION_FORWARD rejuvenation. Each
// forward-away must close the connection left behind (no pool entry, no
// socket in CLOSE_WAIT), so the pool never holds more than the old and the
// new one and the process's descriptor count stays flat.
func TestForwardAwayLeaksNothing(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	// Each stub answers the first request on a connection and forwards the
	// second to the other stub.
	var iors [2]giop.IOR
	ready := make(chan struct{})
	for i := range iors {
		iors[i] = stubServer(t, func(_ giop.IOR, conn net.Conn) {
			<-ready
			for served := 0; ; served++ {
				hdr, ok := readRequest(conn)
				if !ok {
					return
				}
				rh := giop.ReplyHeader{RequestID: hdr.RequestID, Status: giop.ReplyNoException}
				body := func(e *cdr.Encoder) { e.WriteLongLong(1) }
				if served > 0 {
					rh.Status = giop.ReplyLocationForward
					body = func(e *cdr.Encoder) { giop.EncodeIOR(e, iors[1-i]) }
				}
				if _, err := conn.Write(giop.EncodeReply(cdr.BigEndian, rh, body)); err != nil {
					return
				}
			}
		})
	}
	close(ready)
	countFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}

	c := NewClient(WithConnectionPool())
	defer c.Close()
	o := c.Object(iors[0])
	// Every call but the first is the second on its connection: forwarded
	// away, and answered as the first on a new connection to the other stub.
	forwardAway := func() {
		if _, err := invokeTime(o); err != nil {
			t.Fatal(err)
		}
		if got := c.PooledConnections(); got > 2 {
			t.Fatalf("%d pooled connections, want at most 2", got)
		}
	}
	for i := 0; i < 11; i++ {
		forwardAway()
	}
	before := countFDs()
	for i := 0; i < 200; i++ {
		forwardAway()
	}
	if st := o.Stats(); st.Forwards != 210 {
		t.Fatalf("forwards = %d, want 210", st.Forwards)
	}
	// The stubs close their ends when they read the client's close; give the
	// last few a moment.
	const slack = 4
	deadline := time.Now().Add(5 * time.Second)
	for countFDs() > before+slack {
		if time.Now().After(deadline) {
			t.Fatalf("descriptors grew from %d to %d over 200 forward-aways", before, countFDs())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
