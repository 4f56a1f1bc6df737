package client

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/giop"
	"mead/internal/namesvc"
	"mead/internal/replica"
	"mead/internal/telemetry"
)

func startInfra(t *testing.T) (*gcs.Hub, *namesvc.Server) {
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
	return hub, names
}

func startReplicas(t *testing.T, hub *gcs.Hub, names *namesvc.Server, scheme ftmgr.Scheme, n int) []*replica.Replica {
	t.Helper()
	return startGroup(t, hub, n, replica.ServiceConfig{
		Service:         "timeofday",
		HubAddr:         hub.Addr(),
		NamesAddr:       names.Addr(),
		Scheme:          scheme,
		CheckpointEvery: 5 * time.Millisecond,
	})
}

// startGroup starts n replicas r1…rn of cfg and waits for them to form the
// group.
func startGroup(t *testing.T, hub *gcs.Hub, n int, cfg replica.ServiceConfig) []*replica.Replica {
	t.Helper()
	reps := make([]*replica.Replica, 0, n)
	for i := 1; i <= n; i++ {
		r, err := replica.New("r"+string(rune('0'+i)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		reps = append(reps, r)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(hub.Members(cfg.Group())) < n {
		if time.Now().After(deadline) {
			t.Fatal("replicas never formed the group")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return reps
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Scheme: ftmgr.ReactiveNoCache}); err == nil {
		t.Fatal("missing service accepted")
	}
	if _, err := New(Config{Scheme: ftmgr.NeedsAddressing, Service: "s", NamesAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("NEEDS_ADDRESSING without hub accepted")
	}
	if _, err := New(Config{Scheme: ftmgr.Scheme(0), Service: "s", NamesAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSchemesReported(t *testing.T) {
	hub, names := startInfra(t)
	startReplicas(t, hub, names, ftmgr.ReactiveNoCache, 1)
	for _, scheme := range ftmgr.Schemes() {
		s, err := New(Config{
			Scheme:    scheme,
			Service:   "timeofday",
			NamesAddr: names.Addr(),
			HubAddr:   hub.Addr(),
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if s.Scheme() != scheme {
			t.Fatalf("Scheme() = %v, want %v", s.Scheme(), scheme)
		}
		_ = s.Close()
	}
}

func TestInvokeAgainstEmptyNaming(t *testing.T) {
	_, names := startInfra(t)
	s, err := New(Config{Scheme: ftmgr.ReactiveNoCache, Service: "ghost", NamesAddr: names.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out := s.Invoke()
	if out.Err == nil {
		t.Fatal("invoke with no bindings succeeded")
	}
}

func TestAllSchemesServeHappyPath(t *testing.T) {
	hub, names := startInfra(t)
	startReplicas(t, hub, names, ftmgr.MeadMessage, 3)
	for _, scheme := range ftmgr.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			s, err := New(Config{
				Scheme:    scheme,
				Service:   "timeofday",
				NamesAddr: names.Addr(),
				HubAddr:   hub.Addr(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 10; i++ {
				out := s.Invoke()
				if out.Err != nil {
					t.Fatalf("invocation %d: %v", i, out.Err)
				}
				if out.Failover || len(out.Exceptions) != 0 {
					t.Fatalf("fault-free run produced %+v", out)
				}
				if out.RTT <= 0 {
					t.Fatal("non-positive RTT")
				}
			}
		})
	}
}

func TestClassify(t *testing.T) {
	if name, ok := classify(giop.CommFailure(1, giop.CompletedMaybe)); !ok || name != "COMM_FAILURE" {
		t.Fatalf("classify COMM_FAILURE = %q, %v", name, ok)
	}
	if name, ok := classify(giop.Transient(1, giop.CompletedNo)); !ok || name != "TRANSIENT" {
		t.Fatalf("classify TRANSIENT = %q, %v", name, ok)
	}
	if name, ok := classify(&giop.SystemException{RepoID: giop.RepoInternal}); !ok || name != giop.RepoInternal {
		t.Fatalf("classify INTERNAL = %q, %v", name, ok)
	}
	if _, ok := classify(errors.New("plain")); ok {
		t.Fatal("plain error classified as CORBA exception")
	}
}

func TestReactiveCacheRefreshPicksUpRestartedReplica(t *testing.T) {
	hub, names := startInfra(t)
	reps := startReplicas(t, hub, names, ftmgr.ReactiveCache, 2)
	s, err := New(Config{
		Scheme:    ftmgr.ReactiveCache,
		Service:   "timeofday",
		NamesAddr: names.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if out := s.Invoke(); out.Err != nil || out.Replica != "r1" {
		t.Fatalf("outcome = %+v", out)
	}
	// Crash r1; client fails over to r2 from its cache.
	reps[0].Crash()
	<-reps[0].Done()
	if out := s.Invoke(); out.Err != nil || out.Replica != "r2" {
		t.Fatalf("outcome = %+v", out)
	}
	// Restart r1 (new instance, new port, same name -> rebind).
	cfg := replica.ServiceConfig{
		Service:   "timeofday",
		HubAddr:   hub.Addr(),
		NamesAddr: names.Addr(),
		Scheme:    ftmgr.ReactiveCache,
	}
	r1b, err := replica.New("r1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r1b.Stop)

	// Crash r2: the cache is exhausted, the refresh must find the
	// restarted r1 at its NEW address.
	reps[1].Crash()
	<-reps[1].Done()
	out := s.Invoke()
	if out.Err != nil {
		t.Fatalf("refresh failover: %v (%v)", out.Err, out.Exceptions)
	}
	if out.Replica != "r1" {
		t.Fatalf("responder = %q, want restarted r1", out.Replica)
	}
}

func TestOutcomeRTTIncludesRecovery(t *testing.T) {
	hub, names := startInfra(t)
	reps := startReplicas(t, hub, names, ftmgr.ReactiveNoCache, 2)
	s, err := New(Config{Scheme: ftmgr.ReactiveNoCache, Service: "timeofday", NamesAddr: names.Addr(), HubAddr: hub.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if out := s.Invoke(); out.Err != nil {
		t.Fatal(out.Err)
	}
	base := s.Invoke()
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	reps[0].Crash()
	<-reps[0].Done()
	spike := s.Invoke()
	if spike.Err != nil {
		t.Fatal(spike.Err)
	}
	if !spike.Failover {
		t.Fatal("failover not flagged")
	}
	if spike.RTT <= base.RTT {
		t.Fatalf("failover RTT %v not above baseline %v", spike.RTT, base.RTT)
	}
}

// TestCrashReresolveDialsOnlyTheReplica: a strategy holds one naming
// session for its lifetime, so getting past a crashed replica — the
// reactive schemes' re-resolution, and the proactive schemes' fallback to it
// when a crash gives them no warning — opens exactly one connection, the one
// to the next replica, and none to the naming service.
func TestCrashReresolveDialsOnlyTheReplica(t *testing.T) {
	for _, scheme := range ftmgr.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			hub, names := startInfra(t)
			reps := startReplicas(t, hub, names, scheme, 2)
			tel := telemetry.New()
			// Connections opened by the ORB, the interceptor and the GCS
			// member. (MEAD's interceptor first tries the crashed replica
			// again, as after a wire fault, and is refused: no connection.)
			var opened atomic.Int64
			s, err := New(Config{
				Scheme:    scheme,
				Service:   "timeofday",
				NamesAddr: names.Addr(),
				HubAddr:   hub.Addr(),
				Telemetry: tel,
				Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
					conn, err := net.DialTimeout(network, addr, timeout)
					if err == nil {
						opened.Add(1)
					}
					return conn, err
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 3; i++ {
				if out := s.Invoke(); out.Err != nil || out.Replica != "r1" {
					t.Fatalf("outcome = %+v", out)
				}
			}
			if n := tel.NamingDials.Value(); n != 1 {
				t.Fatalf("%d naming dials before the crash, want the session's one", n)
			}
			before := opened.Load()
			reps[0].Crash()
			<-reps[0].Done()
			if out := s.Invoke(); out.Err != nil || out.Replica != "r2" {
				t.Fatalf("outcome across the crash = %+v", out)
			}
			if n := tel.NamingDials.Value(); n != 1 {
				t.Errorf("%d naming dials inside the fail-over, want 0", n-1)
			}
			if n := opened.Load() - before; n != 1 {
				t.Errorf("%d connections opened inside the fail-over, want 1 (the next replica)", n)
			}
		})
	}
}

// TestMeadMessageInvokeAllocsExact is the exact guard on a whole logical
// invocation of a warm MEAD-message deployment, client strategy, both
// interceptors and the replica's servant together (testing.AllocsPerRun counts
// the process): none. The responder's name is interned, the server's reader
// dispatches the lone request itself, and checkpoints are an hour apart so
// that no state transfer runs inside the window.
func TestMeadMessageInvokeAllocsExact(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of its Puts; `make perf-guards` runs this exact")
	}
	hub, names := startInfra(t)
	startGroup(t, hub, 2, replica.ServiceConfig{
		Service:         "timeofday",
		HubAddr:         hub.Addr(),
		NamesAddr:       names.Addr(),
		Scheme:          ftmgr.MeadMessage,
		CheckpointEvery: time.Hour,
	})
	s, err := New(Config{Scheme: ftmgr.MeadMessage, Service: "timeofday", NamesAddr: names.Addr(), HubAddr: hub.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var (
		bad    Outcome
		failed bool
	)
	run := func() {
		if out := s.Invoke(); out.Err != nil || out.Replica != "r1" {
			bad, failed = out, true
		}
	}
	for i := 0; i < 200; i++ { // fill the pools
		run()
	}
	got := testing.AllocsPerRun(2000, run)
	if failed {
		t.Fatalf("outcome = %+v", bad)
	}
	if got != 0 {
		t.Fatalf("%v allocs per Strategy.Invoke, want 0", got)
	}
}
