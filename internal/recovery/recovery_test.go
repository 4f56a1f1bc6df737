package recovery

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/giop"
)

func startHub(t *testing.T) *gcs.Hub {
	t.Helper()
	h := gcs.NewHub()
	if err := h.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h
}

func dialMember(t *testing.T, h *gcs.Hub, name string) *gcs.Member {
	t.Helper()
	m, err := gcs.Dial(h.Addr(), name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// launchRecorder is a Factory capturing launch calls.
type launchRecorder struct {
	mu       sync.Mutex
	launched []string
	onLaunch func(name string)
}

func (r *launchRecorder) Launch(name string) error {
	r.mu.Lock()
	r.launched = append(r.launched, name)
	cb := r.onLaunch
	r.mu.Unlock()
	if cb != nil {
		cb(name)
	}
	return nil
}

func (r *launchRecorder) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.launched))
	copy(out, r.launched)
	return out
}

const group = "mead.timeofday"

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestNewValidation(t *testing.T) {
	h := startHub(t)
	member := dialMember(t, h, "rm")
	f := &launchRecorder{}
	if _, err := New(Config{Group: group, ReplicaNames: []string{"r1"}, Factory: f}); err == nil {
		t.Fatal("nil member accepted")
	}
	if _, err := New(Config{Member: member, Group: group, ReplicaNames: []string{"r1"}}); err == nil {
		t.Fatal("nil factory accepted")
	}
	if _, err := New(Config{Member: member, Group: group, Factory: f}); err == nil {
		t.Fatal("empty replica set accepted")
	}
}

func TestRelaunchOnCrash(t *testing.T) {
	h := startHub(t)
	r1 := dialMember(t, h, "r1")
	_ = r1.Join(group)
	r2 := dialMember(t, h, "r2")
	_ = r2.Join(group)
	go func() {
		for range r1.Deliveries() {
		}
	}()
	go func() {
		for range r2.Deliveries() {
		}
	}()

	// Join returns with the join written, not sequenced: a manager that joins
	// ahead of r2 finds it missing from its first view and launches it.
	waitFor(t, "both replicas to join", func() bool { return len(h.Members(group)) == 2 })

	f := &launchRecorder{}
	rm, err := New(Config{
		Member:       dialMember(t, h, "rm"),
		Group:        group,
		ReplicaNames: []string{"r1", "r2"},
		RestartDelay: 10 * time.Millisecond,
		Factory:      f,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rm.Stop)

	waitFor(t, "rm to see both replicas", func() bool {
		rm.mu.Lock()
		defer rm.mu.Unlock()
		return rm.alive["r1"] && rm.alive["r2"]
	})

	_ = r1.Close() // crash
	waitFor(t, "relaunch of r1", func() bool {
		names := f.names()
		return len(names) == 1 && names[0] == "r1"
	})
	if rm.Failures() != 1 || rm.Launches() != 1 {
		t.Fatalf("failures=%d launches=%d", rm.Failures(), rm.Launches())
	}
}

func TestProactiveNoticeSpeedsRelaunch(t *testing.T) {
	h := startHub(t)
	r1 := dialMember(t, h, "r1")
	_ = r1.Join(group)
	go func() {
		for range r1.Deliveries() {
		}
	}()

	f := &launchRecorder{}
	rm, err := New(Config{
		Member:         dialMember(t, h, "rm"),
		Group:          group,
		ReplicaNames:   []string{"r1"},
		RestartDelay:   2 * time.Second, // would dominate the test if used
		ProactiveDelay: 5 * time.Millisecond,
		Factory:        f,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rm.Stop)
	waitFor(t, "rm to see r1", func() bool {
		rm.mu.Lock()
		defer rm.mu.Unlock()
		return rm.alive["r1"]
	})

	// T1 notice, then crash: the relaunch must use the proactive delay.
	notifier := dialMember(t, h, "n")
	_ = notifier.Multicast(group, ftmgr.EncodeNotice(ftmgr.Notice{Replica: "r1", Resource: "memory", Usage: 0.85}))
	waitFor(t, "forewarning", func() bool {
		rm.mu.Lock()
		defer rm.mu.Unlock()
		return rm.forewarned["r1"]
	})
	start := time.Now()
	_ = r1.Close()
	waitFor(t, "fast relaunch", func() bool { return len(f.names()) == 1 })
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("relaunch took %v; proactive delay not applied", elapsed)
	}
}

func TestNoDuplicateRelaunch(t *testing.T) {
	h := startHub(t)
	r1 := dialMember(t, h, "r1")
	_ = r1.Join(group)
	go func() {
		for range r1.Deliveries() {
		}
	}()

	relaunched := make(chan string, 4)
	f := &launchRecorder{onLaunch: func(name string) { relaunched <- name }}
	rm, err := New(Config{
		Member:       dialMember(t, h, "rm"),
		Group:        group,
		ReplicaNames: []string{"r1"},
		RestartDelay: 5 * time.Millisecond,
		Factory:      f,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rm.Start()
	t.Cleanup(rm.Stop)
	waitFor(t, "alive", func() bool {
		rm.mu.Lock()
		defer rm.mu.Unlock()
		return rm.alive["r1"]
	})
	_ = r1.Close()
	<-relaunched
	// Additional view changes (e.g. other members joining) must not
	// schedule a second relaunch while the first is pending/alive again.
	other := dialMember(t, h, "x")
	_ = other.Join(group)
	time.Sleep(50 * time.Millisecond)
	if n := len(f.names()); n != 1 {
		t.Fatalf("launches = %d (%v), want 1", n, f.names())
	}
}

func TestRelaunchedReplicaCanFailAgain(t *testing.T) {
	h := startHub(t)
	f := &launchRecorder{}
	var relaunchCount int
	f.onLaunch = func(name string) {
		// Simulate the factory bringing the replica back: rejoin.
		m, err := gcs.Dial(h.Addr(), fmt.Sprintf("%s", name))
		if err != nil {
			return
		}
		_ = m.Join(group)
		go func() {
			for range m.Deliveries() {
			}
		}()
		relaunchCount++
		if relaunchCount <= 1 {
			// Fail again shortly after the first relaunch.
			go func() {
				time.Sleep(20 * time.Millisecond)
				_ = m.Close()
			}()
		}
	}

	first := dialMember(t, h, "r1")
	_ = first.Join(group)
	go func() {
		for range first.Deliveries() {
		}
	}()

	rm, err := New(Config{
		Member:       dialMember(t, h, "rm"),
		Group:        group,
		ReplicaNames: []string{"r1"},
		RestartDelay: 5 * time.Millisecond,
		Factory:      f,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rm.Start()
	t.Cleanup(rm.Stop)
	waitFor(t, "alive", func() bool {
		rm.mu.Lock()
		defer rm.mu.Unlock()
		return rm.alive["r1"]
	})
	_ = first.Close()
	waitFor(t, "two relaunches (crash, then crash of the relaunched)", func() bool {
		return len(f.names()) >= 2
	})
	if rm.Failures() < 2 {
		t.Fatalf("failures = %d, want >= 2", rm.Failures())
	}
}

func TestStopCancelsPendingRelaunch(t *testing.T) {
	h := startHub(t)
	r1 := dialMember(t, h, "r1")
	_ = r1.Join(group)
	go func() {
		for range r1.Deliveries() {
		}
	}()
	f := &launchRecorder{}
	rm, err := New(Config{
		Member:       dialMember(t, h, "rm"),
		Group:        group,
		ReplicaNames: []string{"r1"},
		RestartDelay: 500 * time.Millisecond,
		Factory:      f,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rm.Start()
	waitFor(t, "alive", func() bool {
		rm.mu.Lock()
		defer rm.mu.Unlock()
		return rm.alive["r1"]
	})
	_ = r1.Close()
	waitFor(t, "failure observed", func() bool { return rm.Failures() == 1 })
	rm.Stop()
	time.Sleep(600 * time.Millisecond)
	if len(f.names()) != 0 {
		t.Fatalf("launches after Stop = %v", f.names())
	}
}

// TestDeliveriesOtherThanNoticesAllocsExact is the Recovery Manager's half of
// the decode-once guard in `make perf-guards`: it acts on notices alone, so a
// durable Checkpoint, a SyncList or a recovery query costs it a look at the
// kind octet. Decoding them in full would copy every snapshot (three
// allocations for this Checkpoint) and parse every IOR of a listing.
func TestDeliveriesOtherThanNoticesAllocsExact(t *testing.T) {
	h := startHub(t)
	rm, err := New(Config{Member: dialMember(t, h, "rm"), Group: group, ReplicaNames: []string{"r1"}, Factory: &launchRecorder{}})
	if err != nil {
		t.Fatal(err)
	}
	announce := ftmgr.Announce{Name: "r1", Addr: "127.0.0.1:7001", IORs: []giop.IOR{
		giop.NewIOR("IDL:mead/TimeOfDay:1.0", "127.0.0.1", 7001, giop.MakeObjectKey("timeofday", "clock")),
	}}
	for name, payload := range map[string][]byte{
		"checkpoint":     ftmgr.EncodeCheckpoint(ftmgr.Checkpoint{From: "r1", Data: make([]byte, 512)}),
		"sync":           ftmgr.EncodeSyncList(ftmgr.SyncList{View: 3, Replicas: []ftmgr.Announce{announce}}),
		"recovery query": ftmgr.EncodeRecoveryQuery(ftmgr.RecoveryQuery{From: "r1", Nonce: 1, Data: make([]byte, 512)}),
	} {
		d := gcs.Delivery{Kind: gcs.DeliverData, Group: group, Sender: "r1", Payload: payload}
		if got := testing.AllocsPerRun(100, func() { rm.handle(d) }); got != 0 {
			t.Errorf("a %s delivery allocates %.0f times in the Recovery Manager, want 0", name, got)
		}
	}
	rm.handle(gcs.Delivery{Kind: gcs.DeliverData, Group: group, Sender: "r1",
		Payload: ftmgr.EncodeNotice(ftmgr.Notice{Replica: "r1", Resource: "memory", Usage: 0.85})})
	if !rm.forewarned["r1"] {
		t.Fatal("a notice no longer forewarns the Recovery Manager")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	h := startHub(t)
	f := &launchRecorder{}
	rm, err := New(Config{
		Member:       dialMember(t, h, "rm"),
		Group:        group,
		ReplicaNames: []string{"r1"},
		Factory:      f,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rm.Stop)
	if err := rm.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
}
