package experiment

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mead/internal/ftmgr"
)

// writeSyscalls returns the process's count of write-family system calls
// (syscw of /proc/self/io), or false where the kernel does not expose it.
func writeSyscalls() (int64, bool) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "syscw: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// TestReplicatedPathWriteSyscalls counts every write system call the process
// makes — client, replicas, hub, log files — per invocation of the
// benchmark's steady_pooled_durable shape: LOCATION_FORWARD durable replicas,
// two callers sharing one pooled reference, one P. Two requests leave in one
// write, their two replies in one, and the log is written once a
// millisecond, so the whole replicated path costs little more than the bare
// pooled ORB's one write per invocation. It cost 2.5 when the interceptor
// wrote frame by frame and the log writer flushed after every drain.
func TestReplicatedPathWriteSyscalls(t *testing.T) {
	if _, ok := writeSyscalls(); !ok {
		t.Skip("/proc/self/io not readable")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sc := compressed(ftmgr.LocationForward)
	sc.InjectFault = false
	sc.CheckpointEvery = 0 // the deployment's default 50 ms, as in the benchmark
	sc.StateDir = t.TempDir()
	d, err := NewDeployment(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := pooledRef(t, d)

	drive := func(each int) {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < each; n++ {
					if err := ref.Invoke("time_of_day", nil, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	drive(500) // dial, first checkpoint, pools
	const each = 10000
	before, _ := writeSyscalls()
	drive(each)
	after, _ := writeSyscalls()
	perInvoke := float64(after-before) / (2 * each)
	t.Logf("%.2f write system calls per invocation, whole process", perInvoke)
	if perInvoke > 1.5 {
		t.Fatalf("%.2f write system calls per invocation on the replicated pooled path, want <= 1.5", perInvoke)
	}
}
