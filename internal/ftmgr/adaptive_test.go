package ftmgr

import (
	"math"
	"testing"
	"time"
)

// fixedClockPredictor returns a predictor with a controllable clock.
func fixedClockPredictor(window int) (*TrendPredictor, *time.Time) {
	p := NewTrendPredictor(window)
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }
	return p, &now
}

func TestTrendPredictorNeedsSamples(t *testing.T) {
	p := NewTrendPredictor(0)
	if _, ok := p.Rate(); ok {
		t.Fatal("rate with no samples")
	}
	p.Observe(0.1)
	p.Observe(0.2)
	if _, ok := p.Rate(); ok {
		t.Fatal("rate with two samples")
	}
	if _, ok := p.TimeToExhaustion(); ok {
		t.Fatal("projection with two samples")
	}
}

func TestTrendPredictorLinearLeak(t *testing.T) {
	p, now := fixedClockPredictor(0)
	// 10% per second for 5 seconds.
	for i := 0; i <= 5; i++ {
		p.Observe(0.1 * float64(i))
		*now = now.Add(time.Second)
	}
	rate, ok := p.Rate()
	if !ok {
		t.Fatal("no rate")
	}
	if math.Abs(rate-0.1) > 1e-9 {
		t.Fatalf("rate = %v, want 0.1/s", rate)
	}
	// Last sample: usage 0.5 -> 5 s to exhaustion.
	tte, ok := p.TimeToExhaustion()
	if !ok {
		t.Fatal("no projection")
	}
	if math.Abs(tte.Seconds()-5) > 0.01 {
		t.Fatalf("time to exhaustion = %v, want ~5s", tte)
	}
}

func TestTrendPredictorFlatAndShrinking(t *testing.T) {
	p, now := fixedClockPredictor(0)
	for i := 0; i < 5; i++ {
		p.Observe(0.5)
		*now = now.Add(time.Second)
	}
	if _, ok := p.TimeToExhaustion(); ok {
		t.Fatal("flat trend projected exhaustion")
	}
	p2, now2 := fixedClockPredictor(0)
	for i := 0; i < 5; i++ {
		p2.Observe(0.5 - 0.05*float64(i))
		*now2 = now2.Add(time.Second)
	}
	if _, ok := p2.TimeToExhaustion(); ok {
		t.Fatal("shrinking trend projected exhaustion")
	}
}

func TestTrendPredictorAlreadyExhausted(t *testing.T) {
	p, now := fixedClockPredictor(0)
	for i := 0; i <= 3; i++ {
		p.Observe(0.5 * float64(i)) // reaches 1.5
		*now = now.Add(time.Second)
	}
	tte, ok := p.TimeToExhaustion()
	if !ok || tte != 0 {
		t.Fatalf("exhausted projection = %v, %v", tte, ok)
	}
}

func TestTrendPredictorWindowSlides(t *testing.T) {
	p, now := fixedClockPredictor(4)
	// Old slow phase then a fast phase; the window must only see the fast
	// phase.
	for i := 0; i < 10; i++ {
		p.Observe(0.01 * float64(i))
		*now = now.Add(time.Second)
	}
	base := 0.09
	for i := 0; i < 4; i++ {
		p.Observe(base + 0.2*float64(i))
		*now = now.Add(time.Second)
	}
	rate, ok := p.Rate()
	if !ok {
		t.Fatal("no rate")
	}
	if math.Abs(rate-0.2) > 0.01 {
		t.Fatalf("windowed rate = %v, want ~0.2/s", rate)
	}
}

func TestAdaptiveThresholdFallsBackWithoutTrend(t *testing.T) {
	a := NewAdaptiveThreshold(100 * time.Millisecond)
	if th := a.Threshold(0.9); th != 0.9 {
		t.Fatalf("threshold without data = %v", th)
	}
}

func TestAdaptiveThresholdDerivesFromRate(t *testing.T) {
	a := NewAdaptiveThreshold(time.Second)
	now := time.Unix(0, 0)
	a.predictor.now = func() time.Time { return now }
	// 5% per second leak.
	for i := 0; i <= 5; i++ {
		a.Observe(0.05 * float64(i))
		now = now.Add(time.Second)
	}
	// threshold = 1 - 0.05 * 1s * safety(2) = 0.9
	th := a.Threshold(0.5)
	if math.Abs(th-0.9) > 0.001 {
		t.Fatalf("adaptive threshold = %v, want 0.9", th)
	}
}

func TestAdaptiveThresholdClamped(t *testing.T) {
	a := NewAdaptiveThreshold(10 * time.Second)
	now := time.Unix(0, 0)
	a.predictor.now = func() time.Time { return now }
	// Very fast leak: 30%/s -> raw threshold would be negative.
	for i := 0; i <= 4; i++ {
		a.Observe(0.3 * float64(i) / 4)
		now = now.Add(250 * time.Millisecond)
	}
	th := a.Threshold(0.8)
	if th != a.Floor {
		t.Fatalf("threshold = %v, want clamped to floor %v", th, a.Floor)
	}
	if a.Predictor() == nil {
		t.Fatal("nil predictor accessor")
	}
}

func TestManagerWithAdaptiveThreshold(t *testing.T) {
	h := startHub(t)
	b := budgetAt(t, 0)
	member := dialMember(t, h, "ra")
	adaptive := NewAdaptiveThreshold(50 * time.Millisecond)
	m, err := NewManager(Config{
		ReplicaName: "ra", Group: testGroup, Scheme: MeadMessage,
		Monitor: b, Member: member, Adaptive: adaptive,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without a trend the preset 90% applies: 85% does not migrate.
	b.Consume(850)
	if m.PollThresholds() {
		t.Fatal("migrated below preset threshold without trend")
	}
	// Past the preset it migrates regardless.
	b.Consume(100)
	if !m.PollThresholds() {
		t.Fatal("did not migrate past preset threshold")
	}
}
