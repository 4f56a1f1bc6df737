package resource

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewBudgetRejectsBadCapacity(t *testing.T) {
	for _, c := range []int64{0, -1} {
		if _, err := NewBudget("m", c); !errors.Is(err, ErrBadCapacity) {
			t.Fatalf("capacity %d: err = %v", c, err)
		}
	}
}

func TestBudgetConsumeAndFraction(t *testing.T) {
	b, err := NewBudget("memory", 100)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "memory" || b.Capacity() != 100 {
		t.Fatalf("budget = %s/%d", b.Name(), b.Capacity())
	}
	if b.Consume(50) {
		t.Fatal("exhausted at 50%")
	}
	if b.Fraction() != 0.5 || b.Used() != 50 {
		t.Fatalf("fraction = %v used = %d", b.Fraction(), b.Used())
	}
	if !b.Consume(50) {
		t.Fatal("not exhausted at 100%")
	}
	if !b.Exhausted() {
		t.Fatal("Exhausted() = false at capacity")
	}
}

func TestBudgetUsedCapsAtCapacity(t *testing.T) {
	b, _ := NewBudget("m", 10)
	b.Consume(1000)
	if b.Used() != 10 {
		t.Fatalf("Used() = %d, want capped 10", b.Used())
	}
	if b.Fraction() < 1 {
		t.Fatalf("Fraction() = %v, want >= 1", b.Fraction())
	}
}

func TestBudgetNegativeConsumeIgnored(t *testing.T) {
	b, _ := NewBudget("m", 10)
	b.Consume(5)
	b.Consume(-100)
	if b.Used() != 5 {
		t.Fatalf("Used() = %d after negative consume", b.Used())
	}
}

func TestBudgetReset(t *testing.T) {
	b, _ := NewBudget("m", 10)
	b.Consume(10)
	b.Reset()
	if b.Used() != 0 || b.Exhausted() {
		t.Fatal("reset did not clear usage")
	}
}

func TestBudgetConcurrentConsume(t *testing.T) {
	b, _ := NewBudget("m", 1_000_000)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				b.Consume(1)
			}
		}()
	}
	wg.Wait()
	if b.Used() != 8000 {
		t.Fatalf("Used() = %d, want 8000", b.Used())
	}
}

func TestQuickBudgetMonotonic(t *testing.T) {
	f := func(chunks []uint8) bool {
		b, _ := NewBudget("m", 1<<20)
		var prev float64
		for _, c := range chunks {
			b.Consume(int64(c))
			f := b.Fraction()
			if f < prev {
				return false
			}
			prev = f
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
