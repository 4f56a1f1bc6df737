package experiment

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mead/internal/client"
	"mead/internal/ftmgr"
)

// TestExitedReplicasReleaseTheirGraphs: a deployment keeps every replica
// instance it ever launched (harnesses read Done/ExitReason/Requests from
// them), and under rejuvenation that list grows by tens of instances a
// second. An exited instance must therefore pin nothing sizeable — not its
// GCS member's delivery queue, not its durable store's append queue and
// write buffer, not its ORB. 200 launch→exit cycles (the exit path is the
// same one rejuvenation takes) may grow the live heap by less than 4 MiB;
// they grew it by some 60 MiB when exited instances kept their graphs.
func TestExitedReplicasReleaseTheirGraphs(t *testing.T) {
	sc := compressed(ftmgr.MeadMessage)
	sc.InjectFault = false
	sc.StateDir = t.TempDir()
	d, err := NewDeployment(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle frees what the first one's finalizers released
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cycle := func(from, to int) {
		for i := from; i < to; i++ {
			if err := d.launch(fmt.Sprintf("cycle%d", i)); err != nil {
				t.Fatal(err)
			}
			reps := d.Replicas()
			reps[len(reps)-1].Stop()
		}
	}
	cycle(0, 20) // pools, maps and the hub's tables reach their steady size
	before := liveHeap()
	cycle(20, 220)
	after := liveHeap()

	exited := 0
	for _, r := range d.Replicas() {
		select {
		case <-r.Done():
			exited++
		default:
		}
	}
	if exited != 220 {
		t.Fatalf("deployment lists %d exited instances, want all 220", exited)
	}
	growth := int64(after) - int64(before)
	t.Logf("live heap %d -> %d bytes over 200 cycles (%d bytes per exited instance)", before, after, growth/200)
	if growth > 4<<20 {
		t.Fatalf("200 exited replicas pin %d bytes of live heap, want < 4 MiB", growth)
	}
}

// TestRelaunchesLeaveNoNamingSessions: a replica opens one naming connection
// per incarnation, to rebind, and closes it; a strategy holds one for its
// lifetime and re-resolves on it. Across 200 crash/relaunch cycles the
// naming server's session gauge must come back to the number of live
// strategies, and the dial counter must read one per incarnation and one
// per strategy — the strategies' re-resolutions in between dialed nothing.
func TestRelaunchesLeaveNoNamingSessions(t *testing.T) {
	d, err := NewDeployment(Scenario{
		Scheme:       ftmgr.ReactiveNoCache,
		Replicas:     3,
		RestartDelay: time.Millisecond,
		Seed:         19,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tel := d.Telemetry()
	waitSessions := func(want int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); tel.NamingSessions.Value() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("mead_naming_sessions = %d, want %d", tel.NamingSessions.Value(), want)
			}
		}
	}
	waitSessions(0) // the three boot incarnations have rebound and closed

	strats := make([]client.Strategy, 2)
	for i := range strats {
		if strats[i], err = d.NewClient(); err != nil {
			t.Fatal(err)
		}
		defer strats[i].Close()
	}
	invokeAll := func() {
		t.Helper()
		for _, s := range strats {
			if out := s.Invoke(); out.Err != nil {
				t.Fatalf("invocation failed: %v (%v)", out.Err, out.Exceptions)
			}
		}
	}
	invokeAll()
	waitSessions(2)

	const cycles = 200
	for i := 0; i < cycles; i++ {
		reps := d.Replicas()
		victim := reps[len(reps)-3] // the oldest live incarnation: every name takes its turn
		victim.Crash()
		for deadline := time.Now().Add(10 * time.Second); len(d.Replicas()) == len(reps); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: %s was not relaunched", i, victim.Name())
			}
		}
		if i%10 == 0 {
			invokeAll() // fails over through the naming session whenever its replica was a victim
		}
	}
	invokeAll()
	waitSessions(2)
	if got, want := tel.NamingDials.Value(), uint64(3+cycles+len(strats)); got != want {
		t.Errorf("mead_naming_dials_total = %d, want %d: one per incarnation, one per strategy", got, want)
	}
	for _, s := range strats {
		_ = s.Close()
	}
	waitSessions(0)
}
