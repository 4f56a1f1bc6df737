package experiment

import (
	"fmt"
	"runtime"
	"testing"

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
