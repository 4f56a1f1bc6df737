package orb

import (
	"errors"
	"fmt"
	"net"
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

// reverseStub accepts one connection, collects n echo requests, and answers
// them in REVERSE arrival order — legal under GIOP, where replies carry the
// request id and may be arbitrarily interleaved.
func reverseStub(t *testing.T, n int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		type req struct {
			id  uint32
			arg string
		}
		var reqs []req
		for len(reqs) < n {
			h, body, err := giop.ReadMessage(conn)
			if err != nil || h.Type != giop.MsgRequest {
				return
			}
			hdr, args, err := giop.DecodeRequest(h.Order, body)
			if err != nil {
				return
			}
			arg, err := args.ReadString()
			if err != nil {
				return
			}
			reqs = append(reqs, req{id: hdr.RequestID, arg: arg})
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			r := reqs[i]
			reply := giop.EncodeReply(cdr.BigEndian,
				giop.ReplyHeader{RequestID: r.id, Status: giop.ReplyNoException},
				func(e *cdr.Encoder) { e.WriteString(r.arg) })
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
		// Hold the connection open until the test tears the listener down.
		_, _, _ = giop.ReadMessage(conn)
	}()
	return ln.Addr().String()
}

// TestPooledOutOfOrderReplies drives n concurrent callers through one shared
// connection against a server that replies strictly in reverse order; every
// caller must still receive the reply matching its own request id.
func TestPooledOutOfOrderReplies(t *testing.T) {
	const n = 8
	addr := reverseStub(t, n)
	ior, err := giop.NewIORForAddr(typeID, addr, clockKey)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(WithConnectionPool())
	defer c.Close()
	o := c.Object(ior)

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("caller-%d", i)
			got, err := invokeEcho(o, want)
			if err != nil {
				errs[i] = err
				return
			}
			if got != want {
				errs[i] = fmt.Errorf("caller %d got %q, want %q", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
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

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					h, body, err := giop.ReadMessage(conn)
					if err != nil || h.Type != giop.MsgRequest {
						return
					}
					hdr, _, err := giop.DecodeRequest(h.Order, body)
					if err != nil {
						return
					}
					reply := giop.EncodeReply(cdr.BigEndian,
						giop.ReplyHeader{RequestID: hdr.RequestID, Status: giop.ReplyLocationForward},
						func(e *cdr.Encoder) { giop.EncodeIOR(e, realIOR) })
					if _, err := conn.Write(reply); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	staleIOR, err := giop.NewIORForAddr(typeID, ln.Addr().String(), clockKey)
	if err != nil {
		t.Fatal(err)
	}
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Swallow n requests without replying, then drop the connection.
		for i := 0; i < n; i++ {
			if _, _, err := giop.ReadMessage(conn); err != nil {
				break
			}
		}
		_ = conn.Close()
	}()

	ior, err := giop.NewIORForAddr(typeID, ln.Addr().String(), clockKey)
	if err != nil {
		t.Fatal(err)
	}
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
			var se *giop.SystemException
			if !errors.As(err, &se) || se.RepoID != giop.RepoCommFailure {
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

// TestReplyChannelsAreReused: a connection's reply channels come from its
// free list and go back to it. 64 callers in flight at once take 64 channels;
// the next 64, in flight when the connection dies, must take those same 64
// and no others, every caller gets exactly one COMM_FAILURE, and every
// channel is back on the list empty — a second send into one of them (deliver
// and fail both settling one registration) would leave a stale reply for
// that channel's next caller.
func TestReplyChannelsAreReused(t *testing.T) {
	const n = 64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Answer the first n requests once all of them are in, swallow the
		// next n, then drop the connection.
		ids := make([]uint32, 0, n)
		for i := 0; i < 2*n; i++ {
			h, body, err := giop.ReadMessage(conn)
			if err != nil {
				return
			}
			hdr, _, err := giop.DecodeRequest(h.Order, body)
			if err != nil {
				return
			}
			if ids = append(ids, hdr.RequestID); len(ids) != n {
				continue
			}
			for _, id := range ids {
				reply := giop.EncodeReply(cdr.BigEndian,
					giop.ReplyHeader{RequestID: id, Status: giop.ReplyNoException},
					func(e *cdr.Encoder) { e.WriteString("x") })
				if _, err := conn.Write(reply); err != nil {
					return
				}
			}
		}
	}()

	ior, err := giop.NewIORForAddr(typeID, ln.Addr().String(), clockKey)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(WithConnectionPool())
	defer c.Close()
	o := c.Object(ior)
	round := func() []error {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = invokeEcho(o, "x")
			}()
		}
		wg.Wait()
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

	for _, err := range round() {
		if err != nil {
			t.Fatal(err)
		}
	}
	mc, err := c.pool.get(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	first := freeList(mc)
	if len(first) != n {
		t.Fatalf("%d channels on the free list after %d concurrent calls", len(first), n)
	}
	for _, err := range round() {
		var se *giop.SystemException
		if !errors.As(err, &se) || se.RepoID != giop.RepoCommFailure {
			t.Fatalf("caller error = %v, want COMM_FAILURE", err)
		}
	}
	second := freeList(mc)
	if len(second) != n {
		t.Fatalf("%d channels on the free list after the connection failed, want the same %d", len(second), n)
	}
	for ch := range second {
		if !first[ch] {
			t.Fatal("a call allocated a reply channel while the free list held one")
		}
	}
}

// TestPooledLocate exercises LocateRequest demultiplexing on the shared
// transport.
func TestPooledLocate(t *testing.T) {
	s, _ := startServer(t)
	_, o := pooledObjectFor(t, s)
	status, err := o.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if status != giop.LocateObjectHere {
		t.Fatalf("status = %v, want OBJECT_HERE", status)
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
					var se *giop.SystemException
					if !errors.As(err, &se) || se.RepoID != giop.RepoCommFailure {
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
