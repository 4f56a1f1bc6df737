package mead

import (
	"strings"
	"testing"
	"time"
)

// smallInvocations paces a 75 ms run: the leak below crosses the migrate
// threshold some 40 ms after the first request, and the hand-off and the
// rejuvenation behind it must fit before the run ends (300 invocations left
// them 5 ms, which a busy host ate).
const smallInvocations = 500

func smallScenario(scheme Scheme) Scenario {
	return Scenario{
		Scheme:      scheme,
		Invocations: smallInvocations,
		Period:      150 * time.Microsecond,
		InjectFault: true,
		Fault: FaultConfig{
			Tick:      time.Millisecond,
			ChunkUnit: 16,
			Seed:      9,
		},
		RestartDelay:    20 * time.Millisecond,
		ProactiveDelay:  5 * time.Millisecond,
		CheckpointEvery: 10 * time.Millisecond,
		QueryTimeout:    20 * time.Millisecond,
	}
}

func TestPublicRunMeadMessage(t *testing.T) {
	res, err := Run(smallScenario(MeadMessage))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != MeadMessage || len(res.RTTs) != smallInvocations {
		t.Fatalf("result = scheme %v, %d RTTs", res.Scheme, len(res.RTTs))
	}
	if res.ClientFailures() != 0 {
		t.Fatalf("proactive run leaked exceptions: %v", res.Exceptions)
	}
	if res.ServerFailures == 0 {
		t.Fatal("no server-side failures under injection")
	}
}

func TestPublicSchemesAndParse(t *testing.T) {
	all := Schemes()
	if len(all) != 5 {
		t.Fatalf("Schemes() = %d", len(all))
	}
	for _, s := range all {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%v) = %v, %v", s, got, err)
		}
	}
}

func TestPublicDeploymentAccessors(t *testing.T) {
	dep, err := NewDeployment(smallScenario(LocationForward))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if dep.HubAddr() == "" || dep.NamesAddr() == "" {
		t.Fatal("missing infra addresses")
	}
	if dep.Service() != "timeofday" || !strings.HasPrefix(dep.Group(), "mead.") {
		t.Fatalf("service/group = %q/%q", dep.Service(), dep.Group())
	}
	if len(dep.Replicas()) != 3 {
		t.Fatalf("replicas = %d", len(dep.Replicas()))
	}
	strat, err := dep.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer strat.Close()
	if out := strat.Invoke(); out.Err != nil {
		t.Fatal(out.Err)
	}
	if dep.Recovery() == nil || dep.Hub() == nil {
		t.Fatal("nil component accessors")
	}
}

func TestPublicStatsHelpers(t *testing.T) {
	series := []time.Duration{time.Millisecond, 2 * time.Millisecond, 30 * time.Millisecond}
	sum := Summarize(series)
	if sum.Count != 3 || sum.Max != 30*time.Millisecond {
		t.Fatalf("summary = %+v", sum)
	}
	if out := Outliers(series); out.MaxSpike != 30*time.Millisecond {
		t.Fatalf("outliers = %+v", out)
	}
}

func TestPublicNamingRoundTrip(t *testing.T) {
	srv := NewNamingServer()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewNamingClient(srv.Addr())
	defer c.Close()
	if _, err := c.List("x/"); err != nil {
		t.Fatal(err)
	}
}
