// Package experiment reproduces the paper's empirical evaluation
// (Section 5): it boots a full MEAD deployment in-process — GCS hub, Naming
// Service, Recovery Manager, and three warm-passively replicated
// time-of-day servers with memory-leak fault injection — drives 10,000
// paced client invocations under a chosen recovery scheme, and collects the
// measurements behind Table 1 and Figures 3, 4 and 5.
package experiment

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"mead/internal/client"
	"mead/internal/durable"
	"mead/internal/faultinject"
	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/namesvc"
	"mead/internal/netfault"
	"mead/internal/orb"
	"mead/internal/recovery"
	"mead/internal/replica"
	"mead/internal/telemetry"
)

// Paper-scale defaults (Section 5: "a simple CORBA client ... requested the
// time-of-day at 1ms intervals ... Each experiment covered 10,000 client
// invocations", three replicas, thresholds at 80%).
const (
	DefaultInvocations = 10000
	DefaultPeriod      = time.Millisecond
	DefaultReplicas    = 3
)

// Scenario parameterizes one experiment run.
type Scenario struct {
	// Scheme selects the recovery strategy under test.
	Scheme ftmgr.Scheme
	// Invocations is the number of client requests (default 10,000).
	Invocations int
	// Period is the client pacing interval (default 1 ms).
	Period time.Duration
	// Replicas is the warm-passive group size (default 3).
	Replicas int
	// Clients is the number of concurrent clients (default 1, as in the
	// paper). With several clients, a migrating replica must hand off
	// "all its current clients", each over its own connection.
	Clients int
	// Threshold is the rejuvenation (migrate) threshold for proactive
	// schemes (default 0.8, the paper's 80%); the launch threshold is set
	// to 3/4 of it unless LaunchThreshold overrides.
	Threshold       float64
	LaunchThreshold float64
	// InjectFault enables the memory-leak fault (default on; Table 1 and
	// the figures all run with it, the jitter baseline without).
	InjectFault bool
	// Fault parameterizes the leak (zero fields take the paper defaults).
	Fault faultinject.Config
	// RestartDelay and ProactiveDelay configure the Recovery Manager.
	RestartDelay   time.Duration
	ProactiveDelay time.Duration
	// CheckpointEvery is the warm-passive state-transfer period.
	CheckpointEvery time.Duration
	// QueryTimeout is the NEEDS_ADDRESSING group-query window
	// (default 10 ms, as in the paper).
	QueryTimeout time.Duration
	// AdaptiveLeadTime, when non-zero, enables trend-derived migration
	// thresholds (the paper's future-work extension).
	AdaptiveLeadTime time.Duration
	// Objects is the number of application objects per replica (default
	// 1; the object-table scaling ablation raises it).
	Objects int
	// GCSDelay adds fixed latency to every group-communication delivery,
	// emulating the paper's LAN instead of loopback. With realistic
	// latency, the NEEDS_ADDRESSING scheme's failure window — the race
	// between the client's 10 ms query and membership agreement — opens
	// as in the paper (its 25% client-failure rate).
	GCSDelay time.Duration
	// GCSJitter adds a uniform random extra delivery latency in
	// [0, GCSJitter), making the failure window stochastic.
	GCSJitter time.Duration
	// Seed makes fault injection reproducible.
	Seed int64
	// Chaos schedules deterministic wire faults (netfault events keyed on
	// the global invocation count) under the client's transport. Empty
	// means a clean wire. The injector is seeded from Seed, so one seed
	// reproduces the whole run: leak faults, GCS jitter and wire chaos.
	Chaos netfault.Plan
	// StateDir, when non-empty, turns on the durable-state subsystem:
	// every replica keeps an op log and incremental checkpoints under
	// StateDir/<name>, and recovers from them (plus the recovery
	// handshake) on relaunch. Booting a second deployment over the same
	// StateDir is a cold restart from disk.
	StateDir string
	// DurableChaos schedules deterministic durable-I/O faults (torn
	// writes, corrupted records, fsync failures) keyed per replica on its
	// append/sync ordinals. The injector is seeded from Seed^0x6472 so one
	// scenario seed reproduces disk damage alongside wire chaos.
	DurableChaos durable.FaultPlan
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...interface{})
}

func (s Scenario) withDefaults() Scenario {
	if s.Invocations == 0 {
		s.Invocations = DefaultInvocations
	}
	if s.Period == 0 {
		s.Period = DefaultPeriod
	}
	if s.Replicas == 0 {
		s.Replicas = DefaultReplicas
	}
	if s.Clients == 0 {
		s.Clients = 1
	}
	if s.Threshold == 0 {
		s.Threshold = 0.80
	}
	if s.LaunchThreshold == 0 {
		s.LaunchThreshold = 0.75 * s.Threshold
	}
	return s
}

// FailoverSample marks an invocation during which a fail-over occurred.
type FailoverSample struct {
	// Index is the invocation number (0-based).
	Index int
	// RTT is that invocation's round-trip time — the fail-over spike,
	// covering detection plus recovery, as the paper defines it.
	RTT time.Duration
}

// Result collects one run's measurements.
type Result struct {
	Scheme      ftmgr.Scheme
	Invocations int
	// Clients is the number of concurrent clients that ran. With more
	// than one, RTTs and Failovers describe client 0 (the plotted
	// series), while the exception and failure counters aggregate all
	// clients.
	Clients int
	// TotalFailovers aggregates hand-offs across all clients.
	TotalFailovers int

	// RTTs holds the per-invocation round-trip times (the Figure 3/4
	// series).
	RTTs []time.Duration
	// Failovers marks the invocations that performed a hand-off.
	Failovers []FailoverSample
	// Exceptions counts CORBA exceptions raised to the application, by
	// name (COMM_FAILURE, TRANSIENT) — the Section 5.2.1 breakdown.
	Exceptions map[string]int
	// FailedInvocations counts invocations that never succeeded.
	FailedInvocations int
	// ServerFailures counts server-side failure events (crashes and
	// rejuvenations observed by the Recovery Manager).
	ServerFailures int
	// Relaunches counts Recovery Manager replacements.
	Relaunches int
	// GroupBytes and Duration yield the server-group GCS bandwidth
	// (Figure 5).
	GroupBytes uint64
	Duration   time.Duration

	// SteadyHist, FailoverHist and InvokeHist are the deployment-wide
	// telemetry histograms, snapshotted at the end of the run. SteadyHist
	// aggregates every client's undisturbed invocations (excluding each
	// client's first), FailoverHist the invocations that performed a
	// hand-off, and InvokeHist the raw transport round trips underneath
	// them. Unlike RTTs/Failovers, these cover all clients, not just
	// client 0.
	SteadyHist   telemetry.Snapshot
	FailoverHist telemetry.Snapshot
	InvokeHist   telemetry.Snapshot
	// Trace is the recovery-event trace accumulated during the run,
	// oldest first.
	Trace []telemetry.Event
}

// BandwidthBytesPerSec returns the server-group GCS bandwidth.
func (r *Result) BandwidthBytesPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.GroupBytes) / r.Duration.Seconds()
}

// ClientFailures returns the total exceptions the application observed.
func (r *Result) ClientFailures() int {
	total := 0
	for _, n := range r.Exceptions {
		total += n
	}
	return total
}

// ClientFailurePct returns client-visible failures per server-side failure,
// as a percentage (the Table 1 "Client Failures" column).
func (r *Result) ClientFailurePct() float64 {
	if r.ServerFailures == 0 {
		return 0
	}
	return 100 * float64(r.ClientFailures()) / float64(r.ServerFailures)
}

// Run executes one scenario and returns its measurements.
func Run(sc Scenario) (*Result, error) {
	d, err := NewDeployment(sc)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Drive()
}

// Deployment is one booted MEAD system: hub, naming service, recovery
// manager and replicas. Examples and tools can boot one directly and attach
// their own clients; Run wraps the common boot-drive-teardown cycle.
type Deployment struct {
	sc    Scenario
	hub   *gcs.Hub
	names *namesvc.Server
	rm    *recovery.Manager

	svcCfg replica.ServiceConfig
	chaos  *netfault.Injector     // nil on a clean wire
	disk   *durable.FaultInjector // nil on clean disks
	tel    *telemetry.Telemetry

	mu       sync.Mutex
	replicas []*replica.Replica
	seq      int64
}

// NewDeployment boots the scenario's system without driving a workload.
func NewDeployment(sc Scenario) (*Deployment, error) {
	return newDeployment(sc)
}

// newDeployment is NewDeployment with extra hub options, the seam through
// which tests reach the hub's accepted connections.
func newDeployment(sc Scenario, extraHubOpts ...gcs.HubOption) (*Deployment, error) {
	sc = sc.withDefaults()
	d := &Deployment{
		sc:  sc,
		tel: telemetry.New(telemetry.WithScheme(sc.Scheme.String())),
	}
	if len(sc.Chaos) > 0 {
		// The xor decorrelates the wire-jitter stream from the leak-fault
		// and GCS-jitter streams while keeping one scenario seed.
		inj, err := netfault.NewInjector(sc.Seed^0x6e66, sc.Chaos)
		if err != nil {
			return nil, err
		}
		d.chaos = inj
	}
	if len(sc.DurableChaos) > 0 {
		// A third xor constant decorrelates disk damage from the wire and
		// leak streams while keeping one scenario seed.
		inj, err := durable.NewFaultInjector(sc.Seed^0x6472, sc.DurableChaos)
		if err != nil {
			return nil, err
		}
		d.disk = inj
	}
	hubOpts := []gcs.HubOption{gcs.WithHubTelemetry(d.tel)}
	if sc.GCSDelay > 0 {
		hubOpts = append(hubOpts, gcs.WithDeliveryDelay(sc.GCSDelay))
	}
	if sc.GCSJitter > 0 {
		hubOpts = append(hubOpts, gcs.WithDeliveryJitter(sc.GCSJitter, sc.Seed))
	}
	d.hub = gcs.NewHub(append(hubOpts, extraHubOpts...)...)
	if err := d.hub.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	d.names = namesvc.NewServer()
	d.names.SetTelemetry(d.tel)
	if err := d.names.Start("127.0.0.1:0"); err != nil {
		d.Close()
		return nil, err
	}

	d.svcCfg = replica.ServiceConfig{
		Service:          "timeofday",
		HubAddr:          d.hub.Addr(),
		NamesAddr:        d.names.Addr(),
		Scheme:           sc.Scheme,
		LaunchThreshold:  sc.LaunchThreshold,
		MigrateThreshold: sc.Threshold,
		Fault:            sc.Fault,
		InjectFault:      sc.InjectFault,
		CheckpointEvery:  sc.CheckpointEvery,
		AdaptiveLeadTime: sc.AdaptiveLeadTime,
		Objects:          sc.Objects,
		Logf:             sc.Logf,
		Telemetry:        d.tel,
		StateDir:         sc.StateDir,
		DurableFaults:    d.disk,
	}

	names := make([]string, 0, sc.Replicas)
	for i := 1; i <= sc.Replicas; i++ {
		name := fmt.Sprintf("r%d", i)
		names = append(names, name)
		if err := d.launch(name); err != nil {
			d.Close()
			return nil, err
		}
	}
	rmMember, err := gcs.Dial(d.hub.Addr(), "recovery-manager")
	if err != nil {
		d.Close()
		return nil, err
	}
	d.rm, err = recovery.New(recovery.Config{
		Member:         rmMember,
		Group:          d.svcCfg.Group(),
		ReplicaNames:   names,
		RestartDelay:   sc.RestartDelay,
		ProactiveDelay: sc.ProactiveDelay,
		Factory:        recovery.FactoryFunc(d.launch),
		Logf:           sc.Logf,
		Telemetry:      d.tel,
	})
	if err != nil {
		_ = rmMember.Close()
		d.Close()
		return nil, err
	}
	if err := d.rm.Start(); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// NodeOf returns the simulated node hosting a replica. Replicas are placed
// round-robin over `Replicas` nodes (replica rI lives on node I), so the
// paper's node crash-faults can be injected with CrashNode.
func (d *Deployment) NodeOf(replicaName string) string {
	return "node-" + strings.TrimPrefix(replicaName, "r")
}

// CrashNode abruptly kills every live replica hosted on the given node —
// the paper's node crash-fault. It returns the names of the replicas it
// killed. The Recovery Manager observes their departure and relaunches
// them after its restart delay.
func (d *Deployment) CrashNode(node string) []string {
	d.mu.Lock()
	victims := make([]*replica.Replica, 0, 2)
	for _, r := range d.replicas {
		select {
		case <-r.Done():
			continue
		default:
		}
		if d.NodeOf(r.Name()) == node {
			victims = append(victims, r)
		}
	}
	d.mu.Unlock()
	names := make([]string, 0, len(victims))
	for _, r := range victims {
		r.Crash()
		names = append(names, r.Name())
	}
	return names
}

// launch starts a (possibly replacement) replica instance and returns once
// the hub has sequenced its join, so that the order replicas are launched in
// is the order of the view and of the naming service's listing (Start
// returns with the join frame written, not sequenced: a later replica could
// overtake it). It is also the Recovery Manager's factory.
func (d *Deployment) launch(name string) error {
	cfg := d.svcCfg
	d.mu.Lock()
	d.seq++
	cfg.Fault.Seed = d.sc.Seed + d.seq
	d.mu.Unlock()
	r, err := replica.New(name, cfg)
	if err != nil {
		return err
	}
	if err := r.Start(); err != nil {
		return err
	}
	d.mu.Lock()
	d.replicas = append(d.replicas, r)
	d.mu.Unlock()
	return d.waitJoined(r)
}

// waitJoined polls the hub until r is a member of the service group. A
// replica that has already exited counts as joined: it was, and its views
// tell the Recovery Manager what to do next.
func (d *Deployment) waitJoined(r *replica.Replica) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, m := range d.hub.Members(d.svcCfg.Group()) {
			if m == r.Name() {
				return nil
			}
		}
		select {
		case <-r.Done():
			return nil
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("experiment: replica %s never joined the group", r.Name())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Close tears the deployment down.
func (d *Deployment) Close() {
	if d.rm != nil {
		d.rm.Stop()
	}
	d.mu.Lock()
	reps := d.replicas
	d.replicas = nil
	d.mu.Unlock()
	for _, r := range reps {
		r.Stop()
	}
	if d.names != nil {
		_ = d.names.Close()
	}
	if d.hub != nil {
		_ = d.hub.Close()
	}
}

// HubAddr returns the GCS hub endpoint.
func (d *Deployment) HubAddr() string { return d.hub.Addr() }

// NamesAddr returns the Naming Service endpoint.
func (d *Deployment) NamesAddr() string { return d.names.Addr() }

// Service returns the replicated service name.
func (d *Deployment) Service() string { return d.svcCfg.Service }

// Group returns the service's GCS group.
func (d *Deployment) Group() string { return d.svcCfg.Group() }

// Hub exposes the group-communication hub (bandwidth counters).
func (d *Deployment) Hub() *gcs.Hub { return d.hub }

// Recovery exposes the recovery manager (failure/launch counters).
func (d *Deployment) Recovery() *recovery.Manager { return d.rm }

// Replicas snapshots all replica instances launched so far, including
// replaced ones.
func (d *Deployment) Replicas() []*replica.Replica {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*replica.Replica, len(d.replicas))
	copy(out, d.replicas)
	return out
}

// NewClient builds a client strategy for the deployment's scheme.
func (d *Deployment) NewClient() (client.Strategy, error) {
	return client.New(client.Config{
		Scheme:       d.sc.Scheme,
		Service:      d.svcCfg.Service,
		NamesAddr:    d.names.Addr(),
		HubAddr:      d.hub.Addr(),
		QueryTimeout: d.sc.QueryTimeout,
		Dial:         d.clientDial(),
		Telemetry:    d.tel,
	})
}

// clientDial is the transport dialer client strategies use: the chaos
// injector's when a plan is active, the default otherwise.
func (d *Deployment) clientDial() orb.DialFunc {
	if d.chaos == nil {
		return nil
	}
	return d.chaos.DialTimeout
}

// Chaos exposes the wire-fault injector (nil when the scenario has no
// chaos plan); tests read its fired-event accounting.
func (d *Deployment) Chaos() *netfault.Injector { return d.chaos }

// DurableChaos exposes the durable-I/O fault injector (nil when the
// scenario has no durable fault plan).
func (d *Deployment) DurableChaos() *durable.FaultInjector { return d.disk }

// Telemetry exposes the deployment-wide telemetry instance shared by the
// hub, naming service, replicas, recovery manager and every client built
// via NewClient or Drive.
func (d *Deployment) Telemetry() *telemetry.Telemetry { return d.tel }

// ServedRequests sums the application requests executed across every
// replica instance launched so far. Compared with the clients' success
// counts it gives the at-most-once check: equality is exactly-once, any
// surplus bounds the COMPLETED_MAYBE re-executions caused by lost replies.
func (d *Deployment) ServedRequests() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total uint64
	for _, r := range d.replicas {
		total += uint64(r.Requests())
	}
	return total
}

// clientRun is one client's collected outcomes.
type clientRun struct {
	rtts      []time.Duration
	failovers []FailoverSample
	excepts   map[string]int
	failed    int
	err       error
}

// Drive runs the paced client workload (one goroutine per client) and
// collects the result.
func (d *Deployment) Drive() (*Result, error) {
	strats := make([]client.Strategy, d.sc.Clients)
	for i := range strats {
		strat, err := client.New(client.Config{
			Scheme:       d.sc.Scheme,
			Service:      d.svcCfg.Service,
			NamesAddr:    d.names.Addr(),
			HubAddr:      d.hub.Addr(),
			MemberName:   fmt.Sprintf("client-%d", i+1),
			QueryTimeout: d.sc.QueryTimeout,
			Dial:         d.clientDial(),
			Telemetry:    d.tel,
		})
		if err != nil {
			for _, s := range strats[:i] {
				_ = s.Close()
			}
			return nil, err
		}
		strats[i] = strat
	}
	defer func() {
		for _, s := range strats {
			_ = s.Close()
		}
	}()

	res := &Result{
		Scheme:      d.sc.Scheme,
		Invocations: d.sc.Invocations,
		Clients:     d.sc.Clients,
		Exceptions:  make(map[string]int),
	}

	d.hub.ResetTraffic()
	start := time.Now()
	runs := make([]clientRun, d.sc.Clients)
	var wg sync.WaitGroup
	for ci := range strats {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			runs[ci] = d.driveOne(strats[ci], start)
		}(ci)
	}
	wg.Wait()
	res.Duration = time.Since(start)

	// Client 0 provides the plotted series; counters aggregate everyone.
	res.RTTs = runs[0].rtts
	res.Failovers = runs[0].failovers
	for _, run := range runs {
		if run.err != nil {
			return nil, run.err
		}
		for e, n := range run.excepts {
			res.Exceptions[e] += n
		}
		res.FailedInvocations += run.failed
		res.TotalFailovers += len(run.failovers)
	}
	res.GroupBytes, _ = d.hub.GroupTraffic(d.svcCfg.Group())
	res.ServerFailures = d.rm.Failures()
	res.Relaunches = d.rm.Launches()

	return d.finishResult(res), nil
}

// driveOne runs one client's fixed-rate invocation loop.
func (d *Deployment) driveOne(strat client.Strategy, start time.Time) clientRun {
	run := clientRun{
		rtts:    make([]time.Duration, 0, d.sc.Invocations),
		excepts: make(map[string]int),
	}
	for i := 0; i < d.sc.Invocations; i++ {
		// Fixed-rate pacing: invocation i fires at start + i*Period.
		next := start.Add(time.Duration(i) * d.sc.Period)
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		out := strat.Invoke()
		run.rtts = append(run.rtts, out.RTT)
		if out.Failover {
			run.failovers = append(run.failovers, FailoverSample{Index: i, RTT: out.RTT})
		}
		for _, e := range out.Exceptions {
			run.excepts[e]++
		}
		if out.Err != nil {
			run.failed++
		}
	}
	return run
}

// finishResult folds in the server-side failure accounting.
func (d *Deployment) finishResult(res *Result) *Result {
	// Proactive rejuvenations that the Recovery Manager has not yet seen
	// as view changes are counted via replica exit reasons. A replica past T2
	// rejuvenates once its last client's old connection has closed, which
	// the client does behind the reply that handed it off; after a hand-off
	// in the run's final milliseconds that is after the last invocation
	// returned, so such a replica gets up to a second to exit.
	grace, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	exited := 0
	for _, r := range d.Replicas() {
		if mgr := r.Manager(); mgr != nil && mgr.Migrating() {
			select {
			case <-r.Done():
			case <-grace.Done():
			}
		}
		select {
		case <-r.Done():
			exited++
		default:
		}
	}
	if exited > res.ServerFailures {
		res.ServerFailures = exited
	}
	res.SteadyHist = d.tel.SteadyRTT.Snapshot()
	res.FailoverHist = d.tel.FailoverRTT.Snapshot()
	res.InvokeHist = d.tel.InvokeRTT.Snapshot()
	res.Trace = d.tel.Events()
	return res
}
