package experiment

import (
	"strings"
	"testing"
	"time"

	"mead/internal/faultinject"
	"mead/internal/ftmgr"
)

// compressed returns a scenario scaled down for CI: ~100 ms of client
// time, fast fault ticks, quick restarts. Thresholds are crossed gradually
// (~7 ticks between the 80% threshold and exhaustion), as in the paper.
func compressed(scheme ftmgr.Scheme) Scenario {
	return Scenario{
		Scheme:      scheme,
		Invocations: 500,
		Period:      200 * time.Microsecond,
		InjectFault: true,
		Fault: faultinject.Config{
			BufferBytes: 32 * 1024,
			Tick:        time.Millisecond,
			ChunkUnit:   16, // ~0.9 KB/tick: exhausts 32 KB in ~36 ticks
		},
		RestartDelay:    20 * time.Millisecond,
		ProactiveDelay:  5 * time.Millisecond,
		CheckpointEvery: 5 * time.Millisecond,
		QueryTimeout:    50 * time.Millisecond,
		Seed:            42,
	}
}

func run(t *testing.T, sc Scenario) *Result {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFaultFreeRunIsClean(t *testing.T) {
	sc := compressed(ftmgr.ReactiveNoCache)
	sc.InjectFault = false
	res := run(t, sc)
	if res.ServerFailures != 0 {
		t.Fatalf("fault-free run had %d server failures", res.ServerFailures)
	}
	if res.ClientFailures() != 0 || res.FailedInvocations != 0 {
		t.Fatalf("fault-free run had client failures: %+v", res.Exceptions)
	}
	if len(res.RTTs) != sc.Invocations {
		t.Fatalf("recorded %d RTTs", len(res.RTTs))
	}
	if res.MeanSteadyRTT() <= 0 {
		t.Fatal("non-positive steady RTT")
	}
}

func TestReactiveNoCacheExperiment(t *testing.T) {
	res := run(t, compressed(ftmgr.ReactiveNoCache))
	if res.ServerFailures == 0 {
		t.Fatal("fault injection produced no server failures")
	}
	if res.Exceptions["COMM_FAILURE"] == 0 {
		t.Fatalf("reactive run saw no COMM_FAILURE: %+v", res.Exceptions)
	}
	if len(res.Failovers) == 0 {
		t.Fatal("no failover samples recorded")
	}
	if res.FailedInvocations > res.Invocations/10 {
		t.Fatalf("too many dead invocations: %d", res.FailedInvocations)
	}
	// 1:1 correspondence (approximately — trailing failures may be
	// detected after the run window closes).
	cf, sf := res.ClientFailures(), res.ServerFailures
	if cf < sf/2 || cf > 2*sf+2 {
		t.Fatalf("client/server failures = %d/%d, want roughly 1:1", cf, sf)
	}
	// The telemetry histograms and trace mirror the run: steady samples
	// (invocations minus spikes), fail-over samples, and recovery events.
	if res.SteadyHist.Count == 0 || res.FailoverHist.Count == 0 {
		t.Fatalf("telemetry histograms empty: steady %d, failover %d",
			res.SteadyHist.Count, res.FailoverHist.Count)
	}
	// Every client-0 fail-over sample landed in the histogram (which also
	// absorbs failed invocations and other clients' hand-offs).
	if int(res.FailoverHist.Count) < len(res.Failovers) {
		t.Fatalf("failover histogram count %d below %d fail-over samples",
			res.FailoverHist.Count, len(res.Failovers))
	}
	if len(res.Trace) == 0 {
		t.Fatal("recovery trace empty despite failures")
	}
}

func TestProactiveSchemesMaskFailures(t *testing.T) {
	for _, scheme := range []ftmgr.Scheme{ftmgr.LocationForward, ftmgr.MeadMessage} {
		t.Run(scheme.String(), func(t *testing.T) {
			res := run(t, compressed(scheme))
			if res.ServerFailures == 0 {
				t.Fatal("no rejuvenations happened")
			}
			// The headline result: zero exceptions reach the client
			// when there is enough advance warning.
			if res.ClientFailures() != 0 {
				t.Fatalf("proactive run leaked exceptions to the app: %+v", res.Exceptions)
			}
			if len(res.Failovers) == 0 {
				t.Fatal("no transparent hand-offs recorded")
			}
		})
	}
}

// failoverMedianInvocations is the run length of the tests that compare
// fail-over medians between schemes: about a dozen fail-overs per scheme at
// the compressed scenario's leak rate.
const failoverMedianInvocations = 3000

func TestMeadFailoverFasterThanReactive(t *testing.T) {
	// The fixed-seed runs feed every fail-over (across all clients) into
	// the telemetry histogram; its median is robust to the scheduler-noise
	// spikes that could invert sub-millisecond wall-clock means under a
	// loaded (race-enabled, -count=N) run, so a single measurement per
	// scheme suffices — given enough fail-overs for a median to mean
	// something: a dozen per scheme, where the 500 invocations of the
	// compressed run see two, and one late wake-up in MEAD's two inverts the
	// comparison now that the reactive client keeps its naming session.
	long := func(scheme ftmgr.Scheme) Scenario {
		sc := compressed(scheme)
		sc.Invocations = failoverMedianInvocations
		return sc
	}
	reactive := run(t, long(ftmgr.ReactiveNoCache))
	mead := run(t, long(ftmgr.MeadMessage))
	if reactive.FailoverHist.Count == 0 || mead.FailoverHist.Count == 0 {
		t.Fatalf("missing failover samples: reactive %d, mead %d",
			reactive.FailoverHist.Count, mead.FailoverHist.Count)
	}
	rf, mf := reactive.FailoverHist.P50(), mead.FailoverHist.P50()
	if mf >= rf {
		t.Fatalf("MEAD median failover %v not below reactive %v", mf, rf)
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("five full scenario runs")
	}
	template := compressed(ftmgr.ReactiveNoCache)
	template.Invocations = failoverMedianInvocations
	table, results, err := RunTable1(template)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	byScheme := make(map[ftmgr.Scheme]Table1Row)
	for _, row := range table.Rows {
		byScheme[row.Scheme] = row
	}
	// Qualitative checks against the paper's Table 1:
	// proactive schemes mask all client failures...
	if byScheme[ftmgr.LocationForward].ClientFailures != 0 {
		t.Errorf("LOCATION_FORWARD leaked %d failures", byScheme[ftmgr.LocationForward].ClientFailures)
	}
	if byScheme[ftmgr.MeadMessage].ClientFailures != 0 {
		t.Errorf("MEAD leaked %d failures", byScheme[ftmgr.MeadMessage].ClientFailures)
	}
	// ...the reactive baseline sees failures...
	if byScheme[ftmgr.ReactiveNoCache].ClientFailures == 0 {
		t.Error("reactive baseline saw no failures")
	}
	// ...and MEAD's fail-over beats the reactive baseline's. The fail-over
	// histograms already cover every hand-off of the fixed-seed runs, and
	// their medians are robust to the scheduler spikes that invert
	// sub-millisecond means, so the claim is checked once, without
	// re-measurement.
	rh := results[ftmgr.ReactiveNoCache].FailoverHist
	mh := results[ftmgr.MeadMessage].FailoverHist
	if rh.Count == 0 || mh.Count == 0 {
		t.Fatalf("missing failover histograms: reactive %d, mead %d", rh.Count, mh.Count)
	}
	if mh.P50() >= rh.P50() {
		t.Errorf("MEAD median failover %v not below reactive %v", mh.P50(), rh.P50())
	}
	// Formatting round-trips.
	text := table.Format()
	for _, scheme := range ftmgr.Schemes() {
		if !strings.Contains(text, scheme.String()) {
			t.Errorf("formatted table missing %v:\n%s", scheme, text)
		}
	}
	if !strings.Contains(text, "baseline") {
		t.Error("formatted table missing baseline marker")
	}
	breakdown := table.FailureBreakdown()
	if !strings.Contains(breakdown, "COMM_FAILURE") {
		t.Error("breakdown missing COMM_FAILURE column")
	}
	// The per-scheme results also serve Figures 3/4.
	for scheme, res := range results {
		s := res.Series()
		if s.Label != scheme.String() || len(s.Values) != res.Invocations {
			t.Errorf("series for %v malformed", scheme)
		}
	}
}

func TestThresholdSweepBandwidthMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple scenario runs")
	}
	template := compressed(ftmgr.MeadMessage)
	points, err := RunThresholdSweep(template, []float64{0.2, 0.8}, []ftmgr.Scheme{ftmgr.MeadMessage})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	low, high := points[0], points[1]
	if low.Threshold != 0.2 || high.Threshold != 0.8 {
		t.Fatalf("unexpected order: %+v", points)
	}
	// Lower threshold => more rejuvenation cycles => more group traffic.
	if low.ServerFailures <= high.ServerFailures {
		t.Errorf("restarts at 20%% (%d) not above 80%% (%d)",
			low.ServerFailures, high.ServerFailures)
	}
	if low.BandwidthBps <= high.BandwidthBps {
		t.Errorf("bandwidth at 20%% (%.0f B/s) not above 80%% (%.0f B/s)",
			low.BandwidthBps, high.BandwidthBps)
	}
	if !strings.Contains(FormatSweep(points), "mead-message") {
		t.Error("sweep formatting broken")
	}
}

func TestJitterReport(t *testing.T) {
	sc := compressed(ftmgr.ReactiveNoCache)
	res, err := RunFaultFree(sc)
	if err != nil {
		t.Fatal(err)
	}
	report := res.Jitter()
	if report.MaxSpike <= 0 {
		t.Fatal("no max spike measured")
	}
	// 3-sigma outliers are by construction a small fraction.
	if report.Fraction > 0.2 {
		t.Fatalf("outlier fraction %.2f implausibly high", report.Fraction)
	}
}

func TestScenarioDefaults(t *testing.T) {
	sc := Scenario{}.withDefaults()
	if sc.Invocations != DefaultInvocations || sc.Period != DefaultPeriod ||
		sc.Replicas != DefaultReplicas || sc.Threshold != 0.8 {
		t.Fatalf("defaults = %+v", sc)
	}
	if sc.LaunchThreshold >= sc.Threshold {
		t.Fatalf("launch threshold %v not below migrate %v", sc.LaunchThreshold, sc.Threshold)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	res := &Result{
		Scheme:      ftmgr.MeadMessage,
		Invocations: 4,
		RTTs: []time.Duration{
			10 * time.Millisecond, // initial spike (excluded)
			time.Millisecond,
			5 * time.Millisecond, // failover spike
			time.Millisecond,
		},
		Failovers:      []FailoverSample{{Index: 2, RTT: 5 * time.Millisecond}},
		Exceptions:     map[string]int{"COMM_FAILURE": 2, "TRANSIENT": 1},
		ServerFailures: 2,
		GroupBytes:     10000,
		Duration:       2 * time.Second,
	}
	if got := res.MeanSteadyRTT(); got != time.Millisecond {
		t.Fatalf("steady RTT = %v", got)
	}
	if got := res.MeanFailoverTime(); got != 5*time.Millisecond {
		t.Fatalf("failover time = %v", got)
	}
	if got := res.ClientFailures(); got != 3 {
		t.Fatalf("client failures = %d", got)
	}
	if got := res.ClientFailurePct(); got != 150 {
		t.Fatalf("client failure pct = %v", got)
	}
	if got := res.BandwidthBytesPerSec(); got != 5000 {
		t.Fatalf("bandwidth = %v", got)
	}
	empty := &Result{}
	if empty.MeanFailoverTime() != 0 || empty.ClientFailurePct() != 0 || empty.BandwidthBytesPerSec() != 0 {
		t.Fatal("zero-value result metrics wrong")
	}
}

func TestAdaptiveThresholdScenario(t *testing.T) {
	sc := compressed(ftmgr.MeadMessage)
	sc.AdaptiveLeadTime = 5 * time.Millisecond
	res := run(t, sc)
	if res.ServerFailures == 0 {
		t.Fatal("no rejuvenations under adaptive thresholds")
	}
	if res.ClientFailures() != 0 {
		t.Fatalf("adaptive run leaked exceptions: %+v", res.Exceptions)
	}
}

func TestMultiClientProactiveMigration(t *testing.T) {
	// "...can initiate the migration of ALL its current clients": several
	// concurrent clients, each on its own connection, must all be handed
	// off without a single application-visible exception.
	sc := compressed(ftmgr.MeadMessage)
	sc.Clients = 4
	sc.Invocations = 300
	res := run(t, sc)
	if res.Clients != 4 {
		t.Fatalf("clients = %d", res.Clients)
	}
	if res.ServerFailures == 0 {
		t.Fatal("no rejuvenations")
	}
	if res.ClientFailures() != 0 {
		t.Fatalf("multi-client run leaked exceptions: %+v", res.Exceptions)
	}
	if res.TotalFailovers < res.ServerFailures {
		t.Fatalf("total failovers %d below server failures %d: some client was not migrated",
			res.TotalFailovers, res.ServerFailures)
	}
	if len(res.RTTs) != sc.Invocations {
		t.Fatalf("client-0 series length = %d", len(res.RTTs))
	}
}

func TestMultiClientReactiveAllSeeFailures(t *testing.T) {
	sc := compressed(ftmgr.ReactiveNoCache)
	sc.Clients = 3
	sc.Invocations = 300
	res := run(t, sc)
	if res.ServerFailures == 0 {
		t.Fatal("no failures")
	}
	// Every connected client observes the crash: roughly one exception
	// per client per failure.
	if res.ClientFailures() < res.ServerFailures {
		t.Fatalf("client failures %d below server failures %d",
			res.ClientFailures(), res.ServerFailures)
	}
}

func TestCrashNodeKillsItsReplicasAndRecovers(t *testing.T) {
	sc := compressed(ftmgr.ReactiveNoCache)
	sc.InjectFault = false
	d, err := NewDeployment(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if node := d.NodeOf("r2"); node != "node-2" {
		t.Fatalf("NodeOf(r2) = %q", node)
	}
	killed := d.CrashNode("node-1")
	if len(killed) != 1 || killed[0] != "r1" {
		t.Fatalf("killed = %v", killed)
	}
	// The Recovery Manager must bring r1 back.
	deadline := time.Now().Add(10 * time.Second)
	for d.rm.Launches() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("node-crash victim never relaunched")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Crashing an empty node is a no-op.
	if killed := d.CrashNode("node-99"); len(killed) != 0 {
		t.Fatalf("phantom node killed %v", killed)
	}
}

func TestClientSurvivesNodeCrash(t *testing.T) {
	sc := compressed(ftmgr.ReactiveNoCache)
	sc.InjectFault = false
	d, err := NewDeployment(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	strat, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer strat.Close()

	if out := strat.Invoke(); out.Err != nil {
		t.Fatal(out.Err)
	}
	d.CrashNode("node-1") // kills the replica serving the client
	out := strat.Invoke()
	if out.Err != nil {
		t.Fatalf("post-node-crash invoke: %v", out.Err)
	}
	if !out.Failover || out.Replica == "r1" {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestSoakMeadSchemeManyCycles(t *testing.T) {
	// Soak: many rejuvenation cycles under MEAD with the replicated
	// counter checked for monotonic progress at the client (warm-passive
	// state continuity across every hand-off).
	if testing.Short() {
		t.Skip("soak test")
	}
	sc := compressed(ftmgr.MeadMessage)
	sc.Invocations = 2000
	sc.CheckpointEvery = 2 * time.Millisecond
	d, err := NewDeployment(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	strat, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer strat.Close()

	// Warm passive replication loses at most the un-checkpointed tail on
	// each hand-off (one checkpoint period of updates plus scheduling
	// slack); anything larger means state transfer is broken. The bounded
	// regression surfaces on the first invocations served by the new
	// primary, which are not themselves flagged as fail-overs.
	const regressionWindow = 200
	var maxSeen uint64
	var badRegressions, failovers int
	for i := 0; i < sc.Invocations; i++ {
		out := strat.Invoke()
		if out.Err != nil {
			t.Fatalf("invocation %d: %v", i, out.Err)
		}
		if len(out.Exceptions) != 0 {
			t.Fatalf("soak leaked exceptions at %d: %v", i, out.Exceptions)
		}
		if out.Failover {
			failovers++
		}
		if out.Counter+regressionWindow < maxSeen {
			badRegressions++
		}
		if out.Counter > maxSeen {
			maxSeen = out.Counter
		}
		time.Sleep(100 * time.Microsecond)
	}
	if failovers < 3 {
		t.Fatalf("soak exercised only %d hand-offs", failovers)
	}
	if badRegressions != 0 {
		t.Fatalf("replicated counter regressed beyond the checkpoint window %d times", badRegressions)
	}
	if maxSeen < uint64(sc.Invocations)/2 {
		t.Fatalf("counter made little progress: %d after %d invocations", maxSeen, sc.Invocations)
	}
}

func TestNeedsAddressingFailureWindowUnderLatency(t *testing.T) {
	// With delivery latency far above the paper's 10 ms query window, the
	// NEEDS_ADDRESSING recovery query cannot complete in time, so every
	// abrupt failure is exposed to the client (the mechanism behind the
	// paper's 25% — theirs raced, ours is forced for determinism).
	sc := compressed(ftmgr.NeedsAddressing)
	sc.Invocations = 400
	sc.GCSDelay = 30 * time.Millisecond
	sc.QueryTimeout = 10 * time.Millisecond // the paper's window
	res := run(t, sc)
	if res.ServerFailures == 0 {
		t.Fatal("no failures")
	}
	if res.ClientFailures() == 0 {
		t.Fatal("latency did not open the NEEDS_ADDRESSING failure window")
	}
	if res.Exceptions["COMM_FAILURE"] == 0 {
		t.Fatalf("exceptions = %+v", res.Exceptions)
	}
}

func TestNeedsAddressingPartialFailuresUnderLANEmulation(t *testing.T) {
	// With paper-like network latency (fixed delay + jitter), the
	// NEEDS_ADDRESSING failure window opens *partially*: some recoveries
	// beat the 10 ms query window and stay masked, others do not — the
	// paper's 25% regime (we measured ~40% at these constants, and ~33% since
	// a replica keeps a primary query it cannot answer for the next view:
	// what is left are the answers that the emulated network itself delivers
	// late. The exact rate depends on network constants, the mechanism is
	// the point. The run is long enough for some fifteen server failures:
	// with five, under the race detector on a loaded host, three attempts
	// in a row read 0% in 2 runs of 30).
	//
	// Whether one recovery beats the window is a wall-clock race, so a
	// loaded machine (the parallel suite runs in-process benchmarks in
	// sibling packages) can push every recovery past 10 ms in a single
	// run. Like the fail-over comparisons above, re-measure with fresh
	// seeds before declaring the window degenerate.
	if testing.Short() {
		t.Skip("longer stochastic run")
	}
	var pct float64
	for attempt, seed := range []int64{2004, 2005, 2006} {
		sc := compressed(ftmgr.NeedsAddressing)
		sc.Invocations = 9000
		sc.Period = 300 * time.Microsecond
		sc.Fault.Tick = 4 * time.Millisecond
		sc.GCSDelay = 1500 * time.Microsecond
		sc.GCSJitter = 4 * time.Millisecond
		sc.QueryTimeout = 10 * time.Millisecond // the paper's window
		sc.Seed = seed
		res := run(t, sc)
		if res.ServerFailures < 3 {
			t.Fatalf("too few failures to judge: %d", res.ServerFailures)
		}
		pct = res.ClientFailurePct()
		if pct > 0 && pct < 100 {
			return
		}
		t.Logf("attempt %d (seed %d): failure pct %.0f%%, re-measuring", attempt+1, seed, pct)
	}
	if pct <= 0 {
		t.Fatal("failure window never opened under LAN emulation")
	}
	t.Fatalf("every recovery failed (%.0f%%); window should be partial", pct)
}
