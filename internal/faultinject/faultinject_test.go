package faultinject

import (
	"sync/atomic"
	"testing"
	"time"
)

func fastConfig() Config {
	return Config{
		BufferBytes: 4096,
		Tick:        time.Millisecond,
		Scale:       64,
		Shape:       2,
		ChunkUnit:   8,
		Seed:        1,
	}
}

func TestDefaultsApplied(t *testing.T) {
	budget, err := NewBudget(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if budget.Capacity() != DefaultBufferBytes {
		t.Fatalf("default capacity = %d", budget.Capacity())
	}
	in, err := New(Config{}, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := in.Config()
	if cfg.Tick != DefaultTick || cfg.Scale != DefaultScale ||
		cfg.Shape != DefaultShape || cfg.ChunkUnit != DefaultChunkUnit {
		t.Fatalf("defaults = %+v", cfg)
	}
	in.Stop()
}

func TestNewRejectsNilBudget(t *testing.T) {
	if _, err := New(Config{}, nil, nil); err == nil {
		t.Fatal("nil budget accepted")
	}
}

func TestNewRejectsBadWeibull(t *testing.T) {
	budget, _ := NewBudget(Config{})
	if _, err := New(Config{Scale: -1}, budget, nil); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestLeakExhaustsAndFiresOnce(t *testing.T) {
	cfg := fastConfig()
	budget, err := NewBudget(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int32
	crashed := make(chan struct{})
	in, err := New(cfg, budget, func() {
		if fired.Add(1) == 1 {
			close(crashed)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Activated() {
		t.Fatal("activated before Activate")
	}
	if err := in.Activate(); err != nil {
		t.Fatal(err)
	}
	if !in.Activated() {
		t.Fatal("not activated after Activate")
	}
	select {
	case <-crashed:
	case <-time.After(10 * time.Second):
		t.Fatal("leak never exhausted the budget")
	}
	if !budget.Exhausted() {
		t.Fatal("budget not exhausted at crash")
	}
	time.Sleep(20 * time.Millisecond)
	if fired.Load() != 1 {
		t.Fatalf("onExhausted fired %d times", fired.Load())
	}
	in.Stop()
}

func TestActivateIdempotent(t *testing.T) {
	cfg := fastConfig()
	budget, _ := NewBudget(cfg)
	in, err := New(cfg, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := in.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	in.Stop()
}

func TestStopBeforeActivate(t *testing.T) {
	cfg := fastConfig()
	budget, _ := NewBudget(cfg)
	in, _ := New(cfg, budget, nil)
	in.Stop()
	in.Stop() // idempotent
	if err := in.Activate(); err == nil {
		t.Fatal("Activate after Stop succeeded")
	}
}

func TestStopHaltsLeak(t *testing.T) {
	cfg := fastConfig()
	cfg.BufferBytes = 1 << 40 // effectively infinite
	budget, _ := NewBudget(cfg)
	in, _ := New(cfg, budget, nil)
	_ = in.Activate()
	time.Sleep(10 * time.Millisecond)
	in.Stop()
	used := budget.Used()
	time.Sleep(20 * time.Millisecond)
	if budget.Used() != used {
		t.Fatal("leak continued after Stop")
	}
}

func TestLeakRateMatchesCalibration(t *testing.T) {
	// With the paper's parameters at default chunk unit, expected leak per
	// tick is ~Weibull mean * unit; the budget must last roughly
	// BufferBytes / (mean*unit) ticks (within 3x either way — it is a
	// stochastic process).
	cfg := Config{
		BufferBytes: 32 * 1024,
		Tick:        time.Millisecond, // compressed time
		Seed:        7,
	}
	budget, _ := NewBudget(cfg)
	crashed := make(chan struct{})
	in, err := New(cfg, budget, func() { close(crashed) })
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_ = in.Activate()
	select {
	case <-crashed:
	case <-time.After(30 * time.Second):
		t.Fatal("no crash")
	}
	ticks := float64(time.Since(start)) / float64(cfg.Tick)
	expected := float64(32*1024) / (56.72 * float64(DefaultChunkUnit)) // ~18 ticks
	if ticks < expected/3 || ticks > expected*8 {
		t.Fatalf("crash after %.1f ticks, expected around %.1f", ticks, expected)
	}
	in.Stop()
}
