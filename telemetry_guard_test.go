package mead

import (
	"sync"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/durable"
	"mead/internal/orb"
	"mead/internal/telemetry"
)

// BenchmarkInvoke is the uninstrumented baseline: the pooled zero-allocation
// invoke path with no telemetry attached.
func BenchmarkInvoke(b *testing.B) {
	runInvocationBench(b, 1, true)
}

// BenchmarkInvokeInstrumented is the same workload with a live Telemetry
// instance attached: every invocation increments the sharded counters, feeds
// the RTT histogram, and appends a request-sent event to the trace ring.
// Compare its allocs/op against BenchmarkInvoke: the telemetry layer's
// zero-steady-state-allocation contract means the two must match.
func BenchmarkInvokeInstrumented(b *testing.B) {
	tel := telemetry.New(telemetry.WithScheme("bench"))
	runInvocationBench(b, 1, true, orb.WithTelemetry(tel))
}

// BenchmarkInvokeDurable puts the durable write path under the same
// workload: every dispatch executes the replica's op sequence — advance the
// counters under the state lock and frame the op into the store's pending
// batch. Compare its allocs/op against BenchmarkInvoke: the batch's buffers
// are reused, so logging every op must add zero steady-state heap
// allocations per invocation.
func BenchmarkInvokeDurable(b *testing.B) {
	store, _, err := durable.Open(durable.Config{Dir: b.TempDir(), Replica: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	var mu sync.Mutex
	var counter uint64
	servant := orb.ServantFunc(func(op string, args *cdr.Decoder, result *cdr.Encoder) error {
		mu.Lock()
		counter++
		store.Append(durable.Op{OpNumber: counter, Counter: counter, Client: "bench-client", ClientSeq: counter})
		mu.Unlock()
		result.WriteLongLong(time.Now().UnixNano())
		return nil
	})
	runInvocationBenchServant(b, 1, true, servant)
}

// minBench runs one benchmark three times and keeps the minimum allocs/op
// and ns/op. A single testing.Benchmark run can report phantom allocations
// when the whole test suite executes in parallel (GC pressure from sibling
// packages empties the sync.Pools mid-measurement, so warm-up refills get
// amortized over too few iterations); the steady-state minimum is the
// number the zero-alloc contract is about.
func minBench(f func(*testing.B)) (allocs, ns int64) {
	for i := 0; i < 3; i++ {
		r := testing.Benchmark(f)
		if i == 0 || r.AllocsPerOp() < allocs {
			allocs = r.AllocsPerOp()
		}
		if i == 0 || r.NsPerOp() < ns {
			ns = r.NsPerOp()
		}
	}
	return allocs, ns
}

// TestDurableAddsNoAllocs is the durable subsystem's alloc-guard: appending
// every executed op to the durable log must not add a single steady-state
// heap allocation to the pooled invoke path. Same method and caveats as
// TestTelemetryAddsNoAllocs below.
func TestDurableAddsNoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc-guard runs in-process benchmarks")
	}
	ba, bns := minBench(BenchmarkInvoke)
	da, dns := minBench(BenchmarkInvokeDurable)

	// The race detector's sync.Pool drops a quarter of Puts by design, so
	// the invoke path's pooled buffers show up as a fractional allocation
	// per op under -race only. Allow that one artifact; a genuine per-op
	// allocation would still push past it.
	slack := int64(0)
	if raceEnabled {
		slack = 1
	}
	t.Logf("allocs/op: baseline %d, durable %d (race slack %d)", ba, da, slack)
	if da > ba+slack {
		t.Errorf("durable logging added allocations: %d allocs/op durable vs %d baseline", da, ba)
	}

	logNsRatio(t, "durable", bns, dns)
}

// TestTelemetryAddsNoAllocs is the alloc-guard behind the telemetry layer's
// headline claim: attaching telemetry to the pooled invoke path adds zero
// heap allocations per invocation. It measures both benchmarks in-process
// and fails on any added alloc. The wall-clock delta is only reported:
// meadbench judges speed (bench/README.md), and a wall-clock ratio taken
// beside a busy process fails with allocations equal.
func TestTelemetryAddsNoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc-guard runs in-process benchmarks")
	}
	ba, bns := minBench(BenchmarkInvoke)
	ia, ins := minBench(BenchmarkInvokeInstrumented)

	t.Logf("allocs/op: baseline %d, instrumented %d", ba, ia)
	if ia > ba {
		t.Errorf("telemetry added allocations: %d allocs/op instrumented vs %d baseline", ia, ba)
	}

	logNsRatio(t, "instrumented", bns, ins)
}

// logNsRatio reports a guard's wall-clock cost beside the baseline's without
// judging it.
func logNsRatio(t *testing.T, what string, base, ns int64) {
	if base > 0 {
		t.Logf("ns/op: baseline %d, %s %d (%.2fx)", base, what, ns, float64(ns)/float64(base))
	}
}
