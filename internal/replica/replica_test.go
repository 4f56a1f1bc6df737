package replica_test

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/client"
	"mead/internal/faultinject"
	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/giop"
	"mead/internal/namesvc"
	"mead/internal/replica"
)

// cluster is the in-process test deployment: hub, naming service, and N
// replicas of the time-of-day service.
type cluster struct {
	t     *testing.T
	hub   *gcs.Hub
	names *namesvc.Server
	cfg   replica.ServiceConfig
	reps  []*replica.Replica
}

func startCluster(t *testing.T, scheme ftmgr.Scheme, n int, mutate func(*replica.ServiceConfig)) *cluster {
	t.Helper()
	hub := gcs.NewHub()
	if err := hub.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	names := namesvc.NewServer()
	if err := names.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = names.Close() })

	cfg := replica.ServiceConfig{
		Service:         "timeofday",
		HubAddr:         hub.Addr(),
		NamesAddr:       names.Addr(),
		Scheme:          scheme,
		CheckpointEvery: 5 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c := &cluster{t: t, hub: hub, names: names, cfg: cfg}
	for i := 1; i <= n; i++ {
		// Start returns with the join written, not sequenced: wait for it, or a
		// later replica can overtake this one in the view and the tests' "r1 is
		// the primary, r2 the next" no longer holds.
		r := c.launch(i)
		waitFor(t, r.Name()+" to join", func() bool {
			for _, m := range hub.Members(cfg.Group()) {
				if m == r.Name() {
					return true
				}
			}
			return false
		})
	}
	c.waitMembers(n)
	return c
}

func (c *cluster) launch(i int) *replica.Replica {
	c.t.Helper()
	name := replicaName(i)
	r, err := replica.New(name, c.cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(r.Stop)
	c.reps = append(c.reps, r)
	return r
}

func replicaName(i int) string {
	return string(rune('r')) + string(rune('0'+i))
}

func (c *cluster) waitMembers(n int) {
	c.t.Helper()
	waitFor(c.t, "group membership", func() bool {
		return len(c.hub.Members(c.cfg.Group())) >= n
	})
	// All replicas must know each other before experiments begin.
	for _, r := range c.reps {
		r := r
		waitFor(c.t, "replica tables", func() bool {
			return len(r.Manager().Replicas()) >= n
		})
	}
}

func (c *cluster) client(scheme ftmgr.Scheme) client.Strategy {
	c.t.Helper()
	s, err := client.New(client.Config{
		Scheme:       scheme,
		Service:      c.cfg.Service,
		NamesAddr:    c.names.Addr(),
		HubAddr:      c.hub.Addr(),
		QueryTimeout: 200 * time.Millisecond, // generous for CI machines
	})
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() { _ = s.Close() })
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestBasicInvocationThroughCluster(t *testing.T) {
	c := startCluster(t, ftmgr.ReactiveNoCache, 3, nil)
	s := c.client(ftmgr.ReactiveNoCache)
	out := s.Invoke()
	if out.Err != nil {
		t.Fatalf("invoke: %v", out.Err)
	}
	if out.Replica != "r1" {
		t.Fatalf("responder = %q, want r1 (first registered)", out.Replica)
	}
	if out.Timestamp == 0 || out.Counter != 1 {
		t.Fatalf("outcome = %+v", out)
	}
	// Sequential invocations advance the replicated counter.
	out2 := s.Invoke()
	if out2.Err != nil || out2.Counter != 2 {
		t.Fatalf("second outcome = %+v", out2)
	}
}

func TestReactiveNoCacheFailover(t *testing.T) {
	c := startCluster(t, ftmgr.ReactiveNoCache, 3, nil)
	s := c.client(ftmgr.ReactiveNoCache)
	if out := s.Invoke(); out.Err != nil {
		t.Fatal(out.Err)
	}
	c.reps[0].Crash() // kill r1 under the client
	<-c.reps[0].Done()
	if c.reps[0].ExitReason() != replica.ExitCrashed {
		t.Fatalf("exit reason = %v", c.reps[0].ExitReason())
	}

	out := s.Invoke()
	if out.Err != nil {
		t.Fatalf("failover invoke: %v", out.Err)
	}
	if !out.Failover {
		t.Fatal("failover not flagged")
	}
	if len(out.Exceptions) != 1 || out.Exceptions[0] != "COMM_FAILURE" {
		t.Fatalf("exceptions = %v, want exactly one COMM_FAILURE", out.Exceptions)
	}
	if out.Replica != "r2" {
		t.Fatalf("responder after failover = %q, want r2", out.Replica)
	}
	// Subsequent invocations are clean.
	if out := s.Invoke(); out.Err != nil || out.Failover {
		t.Fatalf("post-failover outcome = %+v", out)
	}
}

func TestReactiveCacheFailoverAndStaleEntry(t *testing.T) {
	c := startCluster(t, ftmgr.ReactiveCache, 3, nil)
	s := c.client(ftmgr.ReactiveCache)
	if out := s.Invoke(); out.Err != nil {
		t.Fatal(out.Err)
	}
	// Kill r1: the cached client moves to its cache's next entry (r2).
	c.reps[0].Crash()
	<-c.reps[0].Done()
	out := s.Invoke()
	if out.Err != nil || out.Replica != "r2" {
		t.Fatalf("outcome = %+v", out)
	}
	// Kill r2 and r3: the cache is exhausted; the refresh re-reads the
	// naming service, which still lists r1's stale (dead) address, so the
	// client must observe at least one TRANSIENT before giving up or
	// finding a survivor.
	c.reps[1].Crash()
	c.reps[2].Crash()
	<-c.reps[1].Done()
	<-c.reps[2].Done()
	out = s.Invoke()
	if out.Err == nil {
		t.Fatalf("all replicas dead but invocation succeeded: %+v", out)
	}
	sawTransient := false
	for _, e := range out.Exceptions {
		if e == "TRANSIENT" {
			sawTransient = true
		}
	}
	if !sawTransient {
		t.Fatalf("exceptions = %v, want a TRANSIENT from the stale cache entry", out.Exceptions)
	}
}

func TestLocationForwardMasksMigration(t *testing.T) {
	c := startCluster(t, ftmgr.LocationForward, 3, nil)
	s := c.client(ftmgr.LocationForward)
	if out := s.Invoke(); out.Err != nil || out.Replica != "r1" {
		t.Fatalf("first outcome = %+v", out)
	}
	// Push r1 over the migrate threshold; its next reply must be a
	// LOCATION_FORWARD to r2, transparently retransmitted by the ORB.
	c.reps[0].Budget().Consume(c.reps[0].Budget().Capacity())

	out := s.Invoke()
	if out.Err != nil {
		t.Fatalf("migration invoke: %v", out.Err)
	}
	if len(out.Exceptions) != 0 {
		t.Fatalf("client saw exceptions during proactive migration: %v", out.Exceptions)
	}
	if !out.Failover {
		t.Fatal("transparent forward not flagged as failover")
	}
	if out.Replica != "r2" {
		t.Fatalf("responder = %q, want r2", out.Replica)
	}
	// The faulty replica reaches quiescence and rejuvenates.
	select {
	case <-c.reps[0].Done():
		if c.reps[0].ExitReason() != replica.ExitRejuvenated {
			t.Fatalf("exit reason = %v, want rejuvenated", c.reps[0].ExitReason())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("faulty replica never rejuvenated")
	}
	// The client keeps working against r2, no exceptions at all.
	for i := 0; i < 5; i++ {
		if out := s.Invoke(); out.Err != nil || len(out.Exceptions) != 0 {
			t.Fatalf("post-migration outcome = %+v", out)
		}
	}
}

func TestMeadMessageMasksMigration(t *testing.T) {
	c := startCluster(t, ftmgr.MeadMessage, 3, nil)
	s := c.client(ftmgr.MeadMessage)
	if out := s.Invoke(); out.Err != nil || out.Replica != "r1" {
		t.Fatalf("first outcome = %+v", out)
	}
	c.reps[0].Budget().Consume(c.reps[0].Budget().Capacity())

	// This invocation is served by r1 with a piggybacked MEAD fail-over
	// message; the interceptor redirects the connection afterwards.
	out := s.Invoke()
	if out.Err != nil || len(out.Exceptions) != 0 {
		t.Fatalf("piggyback outcome = %+v", out)
	}
	if out.Replica != "r1" {
		t.Fatalf("piggyback responder = %q, want r1 (no retransmission!)", out.Replica)
	}
	if !out.Failover {
		t.Fatal("redirect not flagged")
	}
	// Next invocation flows to r2 without any retransmission.
	out = s.Invoke()
	if out.Err != nil || out.Replica != "r2" || len(out.Exceptions) != 0 {
		t.Fatalf("post-redirect outcome = %+v", out)
	}
	select {
	case <-c.reps[0].Done():
		if c.reps[0].ExitReason() != replica.ExitRejuvenated {
			t.Fatalf("exit reason = %v", c.reps[0].ExitReason())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("faulty replica never rejuvenated")
	}
}

// TestIdleConnectionDoesNotPinMigratingReplica: a connection that was opened
// to a replica and never carried a request — a MEAD client's standby whose
// owner was handed elsewhere, say — has nobody waiting on it. When r2 crosses
// T2 and its one real client has migrated away, r2 is quiescent and
// rejuvenates; counting the idle socket would hold it until the leak crashes
// it.
func TestIdleConnectionDoesNotPinMigratingReplica(t *testing.T) {
	c := startCluster(t, ftmgr.MeadMessage, 3, nil)
	idle, err := net.Dial("tcp", c.reps[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	s := c.client(ftmgr.MeadMessage)
	if out := s.Invoke(); out.Err != nil || out.Replica != "r1" {
		t.Fatalf("first outcome = %+v", out)
	}
	// Hand the client from r1 to r2. Its connection to r2 is dialed, and so
	// accepted, after the idle one: once r2 answers, r2 holds both.
	c.reps[0].Budget().Consume(c.reps[0].Budget().Capacity())
	if out := s.Invoke(); out.Err != nil || !out.Failover {
		t.Fatalf("hand-off from r1 = %+v", out)
	}
	if out := s.Invoke(); out.Err != nil || out.Replica != "r2" {
		t.Fatalf("outcome after the hand-off = %+v", out)
	}
	// Now r2 hands its real client to r3 and must rejuvenate.
	c.reps[1].Budget().Consume(c.reps[1].Budget().Capacity())
	if out := s.Invoke(); out.Err != nil || !out.Failover || len(out.Exceptions) != 0 {
		t.Fatalf("hand-off from r2 = %+v", out)
	}
	select {
	case <-c.reps[1].Done():
		if c.reps[1].ExitReason() != replica.ExitRejuvenated {
			t.Fatalf("exit reason = %v, want rejuvenated", c.reps[1].ExitReason())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("r2 never rejuvenated: the idle connection pinned it")
	}
}

// TestWritePathT2RejuvenatesOnceAfterTheSwap: T2 crossed on the write path
// has the reply's connection open, so nothing rejuvenates the replica then;
// the connection-closed hook does, once, when the last MEAD client's swap has
// closed its old connection. No client sees a COMM_FAILURE.
func TestWritePathT2RejuvenatesOnceAfterTheSwap(t *testing.T) {
	var mu sync.Mutex
	rejuvenations := 0
	c := startCluster(t, ftmgr.MeadMessage, 3, func(cfg *replica.ServiceConfig) {
		cfg.Logf = func(format string, _ ...interface{}) {
			if strings.Contains(format, "rejuvenating") {
				mu.Lock()
				rejuvenations++
				mu.Unlock()
			}
		}
	})
	first, last := c.client(ftmgr.MeadMessage), c.client(ftmgr.MeadMessage)
	clean := func(what string, s client.Strategy, from string, failover bool) {
		t.Helper()
		out := s.Invoke()
		if out.Err != nil || len(out.Exceptions) != 0 || out.Replica != from || out.Failover != failover {
			t.Fatalf("%s = %+v, want a clean reply from %s, failover %v", what, out, from, failover)
		}
	}
	clean("first client's first invocation", first, "r1", false)
	clean("last client's first invocation", last, "r1", false)

	c.reps[0].Budget().Consume(c.reps[0].Budget().Capacity())
	clean("first client's hand-off", first, "r1", true)
	select {
	case <-c.reps[0].Done():
		t.Fatal("r1 rejuvenated under a client that has not been handed off")
	case <-time.After(50 * time.Millisecond):
	}
	clean("last client's hand-off", last, "r1", true)
	select {
	case <-c.reps[0].Done():
		if c.reps[0].ExitReason() != replica.ExitRejuvenated {
			t.Fatalf("exit reason = %v, want rejuvenated", c.reps[0].ExitReason())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("r1 never rejuvenated after its last client's swap")
	}
	clean("first client after the hand-off", first, "r2", false)
	clean("last client after the hand-off", last, "r2", false)
	mu.Lock()
	defer mu.Unlock()
	if rejuvenations != 1 {
		t.Fatalf("%d rejuvenations, want 1", rejuvenations)
	}
}

// TestReplyAfterLastCloseRejuvenatesReplica: requests that arrive in one
// piece are dispatched on goroutines of their own, so a client that sends two
// in one write and closes can have its close seen — no connection left open,
// the replica not yet migrating — before either reply is written. The first
// reply's write hook then crosses T2 with no connection whose close could
// rejuvenate the replica; only the migrate callback's own quiescence check
// does.
func TestReplyAfterLastCloseRejuvenatesReplica(t *testing.T) {
	testLastCloseRejuvenates(t, 2)
}

// TestLoneRequestCloseRejuvenatesReplica: the server's reader runs a lone
// request itself, so its reply — the write that crosses T2 — leaves while the
// connection is still open, and the connection-closed hook, seeing the last
// close of a migrating replica, rejuvenates it.
func TestLoneRequestCloseRejuvenatesReplica(t *testing.T) {
	testLastCloseRejuvenates(t, 1)
}

// testLastCloseRejuvenates sends requests requests to a replica already past
// T2 in one write, closes, and waits for the replica to rejuvenate.
func testLastCloseRejuvenates(t *testing.T, requests int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := startCluster(t, ftmgr.MeadMessage, 2, nil)
	r1 := c.reps[0]
	r1.Budget().Consume(r1.Budget().Capacity()) // past T2, no leak running
	var wire []byte
	for id := 1; id <= requests; id++ {
		wire = append(wire, giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
			RequestID:        uint32(id),
			ResponseExpected: true,
			ObjectKey:        giop.MakeObjectKey(c.cfg.Service, replica.ObjectName),
			Operation:        "time_of_day",
		}, nil)...)
	}
	conn, err := net.Dial("tcp", r1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// On one P nothing blocks between the write and the close, so when the
	// server first reads, EOF is already buffered behind the requests.
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	select {
	case <-r1.Done():
		if r1.ExitReason() != replica.ExitRejuvenated {
			t.Fatalf("exit reason = %v, want rejuvenated", r1.ExitReason())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("r1 crossed T2 and its last connection closed, and it never rejuvenated")
	}
}

func TestNeedsAddressingRecoversAbruptCrash(t *testing.T) {
	c := startCluster(t, ftmgr.NeedsAddressing, 3, nil)
	s := c.client(ftmgr.NeedsAddressing)
	if out := s.Invoke(); out.Err != nil || out.Replica != "r1" {
		t.Fatalf("first outcome = %+v", out)
	}
	// Abrupt crash with NO advance warning.
	c.reps[0].Crash()
	<-c.reps[0].Done()
	// Give the group a moment to agree on the new primary, so the query
	// deterministically succeeds (the paper's 25% failures are exactly
	// the un-settled window; TestNeedsAddr race coverage lives in ftmgr).
	waitFor(t, "view without r1", func() bool {
		return len(c.hub.Members(c.cfg.Group())) == 2
	})

	out := s.Invoke()
	if out.Err != nil {
		t.Fatalf("recovery invoke: %v (exceptions %v)", out.Err, out.Exceptions)
	}
	if out.Replica != "r2" {
		t.Fatalf("responder = %q, want r2", out.Replica)
	}
	if !out.Failover {
		t.Fatal("EOF recovery not flagged")
	}
	if len(out.Exceptions) != 0 {
		t.Fatalf("exceptions = %v, want masked failure", out.Exceptions)
	}
}

func TestWarmPassiveStateContinuity(t *testing.T) {
	c := startCluster(t, ftmgr.MeadMessage, 3, nil)
	s := c.client(ftmgr.MeadMessage)
	var last uint64
	for i := 0; i < 30; i++ {
		out := s.Invoke()
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		last = out.Counter
		time.Sleep(time.Millisecond)
	}
	// Hand off to r2 and verify the replicated counter did not regress
	// beyond one checkpoint period's worth of updates.
	c.reps[0].Budget().Consume(c.reps[0].Budget().Capacity())
	out := s.Invoke() // piggyback invocation
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	out = s.Invoke() // first invocation on r2
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Replica != "r2" {
		t.Fatalf("responder = %q", out.Replica)
	}
	if out.Counter <= last/2 {
		t.Fatalf("state regressed badly across failover: %d -> %d", last, out.Counter)
	}
}

// TestInMemoryBackupAnswersCheckpointedRetransmission: the primary's
// checkpoint carries its dedup table to an in-memory backup as well, so after
// a fail-over a retransmission of an operation the checkpoint covered is
// answered from that table, with the checkpointed counter and no second
// execution.
func TestInMemoryBackupAnswersCheckpointedRetransmission(t *testing.T) {
	c := startCluster(t, ftmgr.ReactiveNoCache, 2, nil)
	// Clients sharing one identity and each starting at sequence 1: the
	// second one's first invocation retransmits the first one's.
	newClient := func() client.Strategy {
		s, err := client.New(client.Config{
			Scheme:    ftmgr.ReactiveNoCache,
			Service:   c.cfg.Service,
			NamesAddr: c.names.Addr(),
			HubAddr:   c.hub.Addr(),
			ClientID:  "dup-client",
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	if out := newClient().Invoke(); out.Err != nil || out.Replica != "r1" || out.Counter != 1 {
		t.Fatalf("first invocation = %+v", out)
	}
	primary, backup := c.reps[0], c.reps[1]
	waitFor(t, "the backup to receive a checkpoint", func() bool { return backup.StateCounter() == 1 })
	primary.Crash()
	<-primary.Done()

	out := newClient().Invoke()
	if out.Err != nil || out.Replica != "r2" {
		t.Fatalf("retransmission = %+v", out)
	}
	if out.Counter != 1 || backup.StateCounter() != 1 {
		t.Fatalf("the backup re-executed the retransmission: reply counter %d, state %d; want 1 and 1",
			out.Counter, backup.StateCounter())
	}
}

// TestInjectedFaultCrashesReplica: under a reactive scheme nothing watches
// the leak, so it exhausts the budget and crashes the replica; the client sees
// the crash as an exception and the replica exits crashed.
func TestInjectedFaultCrashesReplica(t *testing.T) {
	c := startCluster(t, ftmgr.ReactiveNoCache, 2, func(cfg *replica.ServiceConfig) {
		cfg.InjectFault = true
		cfg.Fault = faultinject.Config{
			BufferBytes: 2048,
			Tick:        2 * time.Millisecond,
			ChunkUnit:   8,
			Seed:        3,
		}
	})
	s := c.client(ftmgr.ReactiveNoCache)
	// The fault activates on the first request.
	deadline := time.Now().Add(10 * time.Second)
	for {
		out := s.Invoke()
		if len(out.Exceptions) > 0 {
			break
		}
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if time.Now().After(deadline) {
			t.Fatal("the leak's crash never surfaced to the reactive client")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-c.reps[0].Done():
		if c.reps[0].ExitReason() != replica.ExitCrashed {
			t.Fatalf("exit reason = %v", c.reps[0].ExitReason())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("injected fault never crashed the replica")
	}
}

func TestExitReasonStrings(t *testing.T) {
	if replica.ExitCrashed.String() != "crashed" ||
		replica.ExitRejuvenated.String() != "rejuvenated" ||
		replica.ExitStopped.String() != "stopped" ||
		replica.ExitReason(9).String() == "" {
		t.Fatal("ExitReason strings wrong")
	}
}

func TestReplicaAccessorsBeforeStart(t *testing.T) {
	r, err := replica.New("rx", replica.ServiceConfig{Service: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Addr() != "" || r.StateCounter() != 0 || r.Requests() != 0 || r.Name() != "rx" {
		t.Fatal("pre-start accessors wrong")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := replica.New("", replica.ServiceConfig{Service: "s"}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := replica.New("r", replica.ServiceConfig{}); err == nil {
		t.Fatal("empty service accepted")
	}
}
