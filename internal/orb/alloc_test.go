package orb

import (
	"testing"

	"mead/internal/cdr"
)

// TestInvocationAllocsExact is the exact guard on what an invocation
// allocates, client and server together (testing.AllocsPerRun counts the
// process): none per Invoke, on a reference that owns its connection and on
// one that shares it. The server's reader dispatches a lone Request itself, so
// no goroutine is spawned for it (its closure was the one allocation this
// guard used to allow), and the client path allocates nothing: the request's
// build closure stays on the caller's stack, the reply channel comes from the
// connection's free list, and handing the read side over sends a value.
func TestInvocationAllocsExact(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of its Puts; `make perf-guards` runs this exact")
	}
	s, _ := startServer(t)
	readTime := func(d *cdr.Decoder) error {
		_, err := d.ReadLongLong()
		return err
	}
	for _, tr := range transports {
		o := objectFor(t, s, tr.opts...)
		var failed error
		run := func() {
			if err := o.Invoke("time_of_day", nil, readTime); err != nil {
				failed = err
			}
		}
		for i := 0; i < 100; i++ { // fill the pools
			run()
		}
		got := testing.AllocsPerRun(2000, run)
		if failed != nil {
			t.Fatalf("%s: %v", tr.name, failed)
		}
		if got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tr.name, got)
		}
	}
}
