package experiment

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/faultinject"
	"mead/internal/ftmgr"
	"mead/internal/giop"
	"mead/internal/namesvc"
	"mead/internal/orb"
	"mead/internal/stats"
)

// TestCrashFailoverTimeline is the instrument behind EXPERIMENTS.md's "Crash
// fail-over decomposition": it drives meadbench's crash_reactive scenario
// (reactive scheme without cache, ~30 crashes a second, one P) with a
// hand-written reactive client whose steps are timed one by one, and prints
// the median of each step across the fail-overs beside the same step
// measured alone on the idle deployment. What a step takes during a
// fail-over beyond what it takes alone is time the client spent queued
// behind the crash's aftermath on the same CPU: teardown, the hub's view
// change and every member's handling of it, the Recovery Manager.
//
//	go test -count=1 -run TestCrashFailoverTimeline -v ./internal/experiment/
func TestCrashFailoverTimeline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d, err := NewDeployment(Scenario{
		Scheme:          ftmgr.ReactiveNoCache,
		Replicas:        3,
		InjectFault:     true,
		Fault:           faultinject.Config{Tick: time.Millisecond, ChunkUnit: 16, Seed: 2004},
		RestartDelay:    20 * time.Millisecond,
		ProactiveDelay:  5 * time.Millisecond,
		CheckpointEvery: 10 * time.Millisecond,
		Seed:            2004,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var dialed time.Duration // the last connection set-up
	client := orb.NewClient(orb.WithDialer(func(network, addr string, timeout time.Duration) (net.Conn, error) {
		began := time.Now()
		conn, err := net.DialTimeout(network, addr, timeout)
		dialed = time.Since(began)
		return conn, err
	}))
	defer client.Close()
	names := namesvc.NewClient(d.NamesAddr())
	defer names.Close()
	prefix := d.Service() + "/"
	list := func() []namesvc.Entry {
		entries, err := names.List(prefix)
		if err != nil || len(entries) != 3 {
			t.Fatalf("naming list: %d entries, %v", len(entries), err)
		}
		return entries
	}

	// The steps alone, on the idle deployment (the leak starts with the
	// first request). The first List opens the naming session and is not a
	// sample: a client pays that once, not per fail-over.
	list()
	var aloneList, aloneDial samples
	for i := 0; i < 50; i++ {
		began := time.Now()
		entries := list()
		aloneList.add(time.Since(began))
		addr, _ := entries[0].IOR.Addr()
		began = time.Now()
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		aloneDial.add(time.Since(began))
		_ = conn.Close()
	}

	idx := 0
	ref := client.Object(list()[idx].IOR)
	defer func() { _ = ref.Close() }()
	seq := uint64(0)
	invoke := func() error {
		seq++
		return ref.Invoke("time_of_day", func(e *cdr.Encoder) {
			e.WriteString("timeline")
			e.WriteULongLong(seq)
		}, nil)
	}

	var steady, broken, listing, dialing, firstReply, total samples
	for deadline := time.Now().Add(1500 * time.Millisecond); time.Now().Before(deadline); {
		t0 := time.Now()
		err := invoke()
		if err == nil {
			steady.add(time.Since(t0))
			continue
		}
		var se *giop.SystemException
		if !errors.As(err, &se) || se.RepoID != giop.RepoCommFailure {
			t.Fatalf("invocation failed with %v, want COMM_FAILURE", err)
		}
		t1 := time.Now()
		entries := list()
		t2 := time.Now()
		idx = (idx + 1) % len(entries)
		ref.Redirect(entries[idx].IOR)
		seq-- // the application retries the same invocation
		if err := invoke(); err != nil {
			t.Fatalf("invocation on the next replica failed: %v", err)
		}
		t3 := time.Now()
		broken.add(t1.Sub(t0))
		listing.add(t2.Sub(t1))
		dialing.add(dialed)
		firstReply.add(t3.Sub(t2) - dialed)
		total.add(t3.Sub(t0))
	}
	if len(total) < 10 {
		t.Fatalf("%d fail-overs in 1.5 s, want at least 10", len(total))
	}

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	alone := us(steady.median()) + us(aloneList.median()) + us(aloneDial.median()) + us(steady.median())
	t.Logf("%d fail-overs, %d steady invocations, one P; medians in µs", len(total), len(steady))
	t.Logf("%-44s %9s %9s", "step", "fail-over", "alone")
	t.Logf("%-44s %9.1f %9.1f", "request in flight, teardown, COMM_FAILURE", us(broken.median()), us(steady.median()))
	t.Logf("%-44s %9.1f %9.1f", "naming List", us(listing.median()), us(aloneList.median()))
	t.Logf("%-44s %9.1f %9.1f", "replica dial", us(dialing.median()), us(aloneDial.median()))
	t.Logf("%-44s %9.1f %9.1f", "first good reply", us(firstReply.median()), us(steady.median()))
	t.Logf("%-44s %9.1f %9.1f", "whole fail-over", us(total.median()), alone)
	t.Logf("queued behind the crash's aftermath: %.1f µs (%.0f%% of the fail-over)",
		us(total.median())-alone, 100*(us(total.median())-alone)/us(total.median()))
}

type samples []time.Duration

func (s *samples) add(d time.Duration) { *s = append(*s, d) }

func (s samples) median() time.Duration { return stats.Summarize(s).P50 }
