// Package resource models the consumable resources whose exhaustion the
// MEAD Proactive Fault-Tolerance Manager watches. "'Resource' refers loosely
// to any resource of interest (e.g., memory, file descriptors, threads) to
// us that could lead to a process-crash fault if it was exhausted"
// (Section 3.2).
package resource

import (
	"errors"
	"sync/atomic"
)

// ErrBadCapacity reports a non-positive capacity.
var ErrBadCapacity = errors.New("resource: capacity must be positive")

// Budget is a simulated consumable resource with a fixed capacity — the
// stand-in for the paper's 32 KB leak buffer. It is safe for concurrent use.
type Budget struct {
	name     string
	capacity int64
	used     atomic.Int64
}

// NewBudget returns a Budget with the given capacity in abstract units
// (bytes, descriptors, ...).
func NewBudget(name string, capacity int64) (*Budget, error) {
	if capacity <= 0 {
		return nil, ErrBadCapacity
	}
	return &Budget{name: name, capacity: capacity}, nil
}

// Name identifies the resource (e.g. "memory").
func (b *Budget) Name() string { return b.name }

// Capacity returns the budget's capacity.
func (b *Budget) Capacity() int64 { return b.capacity }

// Used returns the units consumed so far (capped at capacity).
func (b *Budget) Used() int64 {
	used := b.used.Load()
	if used > b.capacity {
		return b.capacity
	}
	return used
}

// Fraction returns consumed/capacity; values >= 1 mean exhausted.
func (b *Budget) Fraction() float64 {
	return float64(b.used.Load()) / float64(b.capacity)
}

// Consume uses n units and reports whether the budget is now exhausted.
func (b *Budget) Consume(n int64) (exhausted bool) {
	if n < 0 {
		n = 0
	}
	return b.used.Add(n) >= b.capacity
}

// Exhausted reports whether the budget is fully consumed.
func (b *Budget) Exhausted() bool {
	return b.used.Load() >= b.capacity
}

// Reset returns the budget to zero usage — what rejuvenation ("restarting
// the application in a clean internal state") achieves for the resource.
func (b *Budget) Reset() {
	b.used.Store(0)
}
