//go:build race

package client

// raceEnabled mirrors the race-detector build tag for the exact alloc
// guard: under -race sync.Pool drops a quarter of its Puts, so pooled paths
// show allocations a normal build does not make (`make perf-guards` runs the
// guard without the detector).
const raceEnabled = true
