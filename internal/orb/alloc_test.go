package orb

import (
	"testing"

	"mead/internal/cdr"
)

// TestInvocationAllocsExact is the exact guard on what an invocation
// allocates, client and server together (testing.AllocsPerRun counts the
// process): 1 per Invoke and InvokeOneWay and 2 per Locate, on a reference
// that owns its connection and on one that shares it. Every one of them is the
// server's — the goroutine it dispatches a Request on; its copy of a
// LocateRequest's object key and the LocateReply's buffer — so the client
// path allocates nothing: the request's build closure stays on the caller's
// stack, the reply channel comes from the connection's free list, and handing
// the read side over sends a value.
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
		ops := []struct {
			name string
			want float64
			call func() error
		}{
			{"Invoke", 1, func() error { return o.Invoke("time_of_day", nil, readTime) }},
			// A oneway returns before the server has dispatched it; the
			// two-way call behind it waits the dispatch out, so both are
			// inside the measurement. Two requests, two allocations.
			{"InvokeOneWay+Invoke", 2, func() error {
				if err := o.InvokeOneWay("time_of_day", nil); err != nil {
					return err
				}
				return o.Invoke("time_of_day", nil, readTime)
			}},
			{"Locate", 2, func() error {
				_, err := o.Locate()
				return err
			}},
		}
		for _, op := range ops {
			var failed error
			run := func() {
				if err := op.call(); err != nil {
					failed = err
				}
			}
			for i := 0; i < 100; i++ { // fill the pools
				run()
			}
			got := testing.AllocsPerRun(2000, run)
			if failed != nil {
				t.Fatalf("%s/%s: %v", tr.name, op.name, failed)
			}
			if got != op.want {
				t.Errorf("%s/%s: %v allocs/op, want %v", tr.name, op.name, got, op.want)
			}
		}
	}
}
