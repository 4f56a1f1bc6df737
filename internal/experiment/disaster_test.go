package experiment

import (
	"testing"
	"time"

	"mead/internal/client"
	"mead/internal/durable"
	"mead/internal/ftmgr"
	"mead/internal/replica"
	"mead/internal/telemetry"
)

// disasterScenario is the durable-state deployment the disaster suite runs
// under: a clean wire and no leak fault (the disk and the crash are the only
// adversaries), MEAD recovery, and every replica persisting its op log and
// checkpoints under dir. Booting a second deployment over the same dir is a
// cold restart of the whole group from disk.
func disasterScenario(dir string) Scenario {
	return Scenario{
		Scheme:          ftmgr.MeadMessage,
		Invocations:     100,
		Period:          200 * time.Microsecond,
		InjectFault:     false,
		RestartDelay:    20 * time.Millisecond,
		ProactiveDelay:  5 * time.Millisecond,
		CheckpointEvery: 5 * time.Millisecond,
		QueryTimeout:    50 * time.Millisecond,
		Seed:            42,
		StateDir:        dir,
	}
}

// bootDisaster boots a deployment and registers its teardown.
func bootDisaster(t *testing.T, sc Scenario) *Deployment {
	t.Helper()
	d, err := NewDeployment(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// invokeN drives n invocations through a fresh client and asserts each one
// succeeds, returning the client for reuse (nil id derives a unique one).
func invokeN(t *testing.T, d *Deployment, n int) {
	t.Helper()
	strat, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer strat.Close()
	for i := 0; i < n; i++ {
		if out := strat.Invoke(); out.Err != nil {
			t.Fatalf("invocation %d failed: %v", i, out.Err)
		}
	}
}

// waitFiredOnce waits for the named durable fault to have fired exactly
// once. The log is written behind the reply by up to 1 ms (docs/PROTOCOL.md
// §11), so the append the fault is keyed on may not have reached the writer
// when the last invocation returns.
func waitFiredOnce(t *testing.T, d *Deployment, name string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for d.DurableChaos().Fired(name) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fired := d.DurableChaos().Fired(name); fired != 1 {
		t.Fatalf("durable fault %q fired %d times, want 1", name, fired)
	}
}

// liveReplicas filters the deployment's instances down to the running ones.
func liveReplicas(d *Deployment) []*replica.Replica {
	var out []*replica.Replica
	for _, r := range d.Replicas() {
		select {
		case <-r.Done():
		default:
			out = append(out, r)
		}
	}
	return out
}

// waitCounters polls until every live replica's application counter passes
// check, returning the converged value.
func waitCounters(t *testing.T, d *Deployment, within time.Duration, check func(map[string]uint64) bool) uint64 {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		counts := make(map[string]uint64)
		for _, r := range liveReplicas(d) {
			counts[r.Name()] = r.StateCounter()
		}
		if len(counts) > 0 && check(counts) {
			for _, v := range counts {
				return v
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged: %v", counts)
		}
		time.Sleep(time.Millisecond)
	}
}

// converged asserts every live replica holds exactly want.
func converged(want uint64) func(map[string]uint64) bool {
	return func(counts map[string]uint64) bool {
		for _, v := range counts {
			if v != want {
				return false
			}
		}
		return true
	}
}

// agreed asserts every live replica holds the same value, whatever it is.
func agreed(counts map[string]uint64) bool {
	var first uint64
	i := 0
	for _, v := range counts {
		if i == 0 {
			first = v
		} else if v != first {
			return false
		}
		i++
	}
	return true
}

// recoveryTrace extracts the named replica's durable-recovery events, in
// order: the golden sequence for a replay-path conformance check.
func durableRecoveryTrace(events []telemetry.Event, name string) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range events {
		if e.Replica != name {
			continue
		}
		switch e.Kind {
		case telemetry.EvRecoveryStarted, telemetry.EvLogReplayed, telemetry.EvStateFetched:
			out = append(out, e)
		}
	}
	return out
}

// assertGoldenRecovery checks the replay path's event order for one replica.
// The trace must parse as one or more recovery episodes (one per process
// start), each in the canonical order: recovery-started, then log-replayed,
// then zero or more state-fetched — local replay strictly precedes any
// handshake merge. It returns the last episode.
func assertGoldenRecovery(t *testing.T, events []telemetry.Event, name string) []telemetry.Event {
	t.Helper()
	seq := durableRecoveryTrace(events, name)
	if len(seq) < 2 {
		t.Fatalf("%s: recovery trace too short: %v", name, seq)
	}
	var episodes [][]telemetry.Event
	for _, e := range seq {
		if e.Kind == telemetry.EvRecoveryStarted {
			episodes = append(episodes, nil)
		}
		if len(episodes) == 0 {
			t.Fatalf("%s: trace starts with %v, want recovery-started", name, e.Kind)
		}
		episodes[len(episodes)-1] = append(episodes[len(episodes)-1], e)
	}
	for i, ep := range episodes {
		if len(ep) < 2 || ep[1].Kind != telemetry.EvLogReplayed {
			t.Errorf("%s: episode %d: second event after recovery-started must be log-replayed: %v", name, i, ep)
			continue
		}
		for _, e := range ep[2:] {
			if e.Kind != telemetry.EvStateFetched {
				t.Errorf("%s: episode %d: post-replay event %v, want only state-fetched", name, i, e.Kind)
			}
		}
	}
	return episodes[len(episodes)-1]
}

// TestDisasterKillAllColdRestart is the headline disaster drill: every
// replica in the group is destroyed at once (the whole deployment is torn
// down), then the group cold-restarts from its checkpoints and op logs and
// must converge on the exact pre-crash application counter — no ops lost, no
// ops doubled — before serving new traffic.
func TestDisasterKillAllColdRestart(t *testing.T) {
	dir := t.TempDir()
	const n = 60

	d1 := bootDisaster(t, disasterScenario(dir))
	invokeN(t, d1, n)
	pre := waitCounters(t, d1, 5*time.Second, converged(n))
	d1.Close() // kill-all: flushes every op log

	d2 := bootDisaster(t, disasterScenario(dir))
	got := waitCounters(t, d2, 5*time.Second, converged(pre))
	if got != pre {
		t.Fatalf("cold restart recovered counter %d, want pre-crash %d", got, pre)
	}

	// Golden replay-path trace: every replica recovers in the canonical
	// order, and the primary replays its entire uncheckpointed log.
	events := d2.Telemetry().Events()
	for _, name := range []string{"r1", "r2", "r3"} {
		assertGoldenRecovery(t, events, name)
	}
	r1seq := durableRecoveryTrace(events, "r1")
	if replayed := r1seq[1].Value; replayed != n {
		t.Errorf("r1 replayed %d ops, want the full log of %d", replayed, n)
	}
	if d2.Telemetry().OpsReplayed.Value() < n {
		t.Errorf("OpsReplayed = %d, want >= %d", d2.Telemetry().OpsReplayed.Value(), n)
	}

	// The restarted group serves new traffic on top of the recovered state.
	invokeN(t, d2, 5)
	waitCounters(t, d2, 5*time.Second, converged(pre+5))
}

// TestDisasterSingleReplicaRestartFetchesDelta restarts one backup while the
// rest of the group keeps executing. Warm-passive checkpointing is disabled
// (CheckpointEvery is huge), so the only way the relaunched replica can reach
// the group's state is the recovery handshake: replay its local log, then
// fetch the delta from a live member.
func TestDisasterSingleReplicaRestartFetchesDelta(t *testing.T) {
	sc := disasterScenario(t.TempDir())
	sc.CheckpointEvery = time.Hour
	d := bootDisaster(t, sc)

	invokeN(t, d, 20)
	for _, r := range liveReplicas(d) {
		if r.Name() == "r2" {
			r.Crash()
		}
	}
	invokeN(t, d, 30) // the group moves on without r2

	// The Recovery Manager relaunches r2, which must catch up to 50 via the
	// handshake alone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var r2 *replica.Replica
		for _, r := range liveReplicas(d) {
			if r.Name() == "r2" {
				r2 = r
			}
		}
		if r2 != nil && r2.StateCounter() == 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relaunched r2 never caught up to the group state")
		}
		time.Sleep(time.Millisecond)
	}

	seq := assertGoldenRecovery(t, d.Telemetry().Events(), "r2")
	fetched := false
	for _, e := range seq {
		if e.Kind == telemetry.EvStateFetched && e.Value >= 20 {
			fetched = true
		}
	}
	if !fetched {
		t.Errorf("r2 never fetched the delta via the recovery handshake: %v", seq)
	}
}

// TestDisasterTornTail tears the primary's log mid-record (the classic
// power-cut artifact) and wedges its store, then cold-restarts the group.
// Recovery must detect the incomplete frame, truncate past it — never
// silently replay it — and converge the group on one consistent counter via
// the handshake.
func TestDisasterTornTail(t *testing.T) {
	dir := t.TempDir()
	sc := disasterScenario(dir)
	sc.DurableChaos = durable.FaultPlan{
		{Name: "torn", Kind: durable.TornWrite, Replica: "r1", At: 9},
	}

	d1 := bootDisaster(t, sc)
	invokeN(t, d1, 30)
	waitFiredOnce(t, d1, "torn")
	d1.Close()

	d2 := bootDisaster(t, disasterScenario(dir))
	got := waitCounters(t, d2, 5*time.Second, agreed)
	if got < 9 || got > 30 {
		t.Errorf("converged counter %d outside [9, 30]", got)
	}
	if tr := d2.Telemetry().LogTruncations.Value(); tr < 1 {
		t.Errorf("LogTruncations = %d, want >= 1 (torn tail must be detected)", tr)
	}
	assertGoldenRecovery(t, d2.Telemetry().Events(), "r1")

	invokeN(t, d2, 5)
	waitCounters(t, d2, 5*time.Second, converged(got+5))
}

// TestDisasterCorruptRecord flips one byte inside a committed record (bit
// rot) and cold-restarts. The CRC must catch the damage; replay stops at the
// corrupt record and truncates from there — the intact-looking suffix behind
// it is untrusted and discarded, then recovered via the handshake.
func TestDisasterCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	sc := disasterScenario(dir)
	sc.DurableChaos = durable.FaultPlan{
		{Name: "rot", Kind: durable.CorruptWrite, Replica: "r1", At: 11},
	}

	d1 := bootDisaster(t, sc)
	invokeN(t, d1, 30)
	waitFiredOnce(t, d1, "rot")
	d1.Close()

	d2 := bootDisaster(t, disasterScenario(dir))
	got := waitCounters(t, d2, 5*time.Second, agreed)
	if got < 11 || got > 30 {
		t.Errorf("converged counter %d outside [11, 30]", got)
	}
	if tr := d2.Telemetry().LogTruncations.Value(); tr < 1 {
		t.Errorf("LogTruncations = %d, want >= 1 (corrupt record must be detected)", tr)
	}
	r1seq := assertGoldenRecovery(t, d2.Telemetry().Events(), "r1")
	if replayed := r1seq[1].Value; replayed != 11 {
		t.Errorf("r1 replayed %d ops, want exactly the 11 before the corruption", replayed)
	}

	invokeN(t, d2, 5)
	waitCounters(t, d2, 5*time.Second, converged(got+5))
}

// TestDisasterRestartAtMostOnce is the restart-time at-most-once drill: a
// client executes requests, the whole group cold-restarts from disk, and the
// same client identity retransmits the same sequence numbers. The replayed
// dedup table must answer them from cache — the counter must not move — and
// then execute the next fresh sequence number exactly once.
func TestDisasterRestartAtMostOnce(t *testing.T) {
	dir := t.TempDir()
	sc := disasterScenario(dir)
	sc.Scheme = ftmgr.ReactiveNoCache

	newClient := func(d *Deployment) client.Strategy {
		strat, err := client.New(client.Config{
			Scheme:    sc.Scheme,
			Service:   d.Service(),
			NamesAddr: d.NamesAddr(),
			HubAddr:   d.HubAddr(),
			ClientID:  "dup-client",
			Telemetry: d.Telemetry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return strat
	}

	d1 := bootDisaster(t, sc)
	a := newClient(d1)
	for i := 0; i < 3; i++ {
		if out := a.Invoke(); out.Err != nil {
			t.Fatalf("pre-crash invocation %d failed: %v", i, out.Err)
		}
	}
	_ = a.Close()
	waitCounters(t, d1, 5*time.Second, converged(3))
	d1.Close()

	d2 := bootDisaster(t, sc)
	waitCounters(t, d2, 5*time.Second, converged(3))

	// Same identity, fresh sequence space: sequences 1..3 are exact
	// retransmissions of already-executed requests across the restart.
	b := newClient(d2)
	defer b.Close()
	for i := 0; i < 3; i++ {
		if out := b.Invoke(); out.Err != nil {
			t.Fatalf("retransmission %d failed: %v", i, out.Err)
		}
	}
	if got := d2.Telemetry().DupsSuppressed.Value(); got != 3 {
		t.Errorf("DupsSuppressed = %d, want 3 (replayed dedup table must answer)", got)
	}
	waitCounters(t, d2, 5*time.Second, converged(3)) // no re-execution

	// Sequence 4 is fresh: executed exactly once.
	if out := b.Invoke(); out.Err != nil {
		t.Fatalf("fresh invocation failed: %v", out.Err)
	}
	waitCounters(t, d2, 5*time.Second, converged(4))
	if got := d2.Telemetry().DupsSuppressed.Value(); got != 3 {
		t.Errorf("fresh sequence was suppressed: DupsSuppressed = %d", got)
	}
}
