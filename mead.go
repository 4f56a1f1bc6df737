package mead

import (
	"time"

	"mead/internal/client"
	"mead/internal/experiment"
	"mead/internal/faultinject"
	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/idl"
	"mead/internal/namesvc"
	"mead/internal/recovery"
	"mead/internal/replica"
	"mead/internal/stats"
	"mead/internal/telemetry"
)

// Core types re-exported from the implementation packages.
type (
	// Scheme selects one of the five recovery strategies of Table 1.
	Scheme = ftmgr.Scheme

	// Scenario parameterizes an experiment run (workload, thresholds,
	// fault model, restart delays).
	Scenario = experiment.Scenario
	// Result holds one run's measurements (RTT series, fail-overs,
	// exception counts, bandwidth).
	Result = experiment.Result
	// FailoverSample marks an invocation that performed a hand-off.
	FailoverSample = experiment.FailoverSample
	// Deployment is a booted MEAD system (hub, naming, recovery manager,
	// replicas).
	Deployment = experiment.Deployment
	// Table1 reproduces the paper's Table 1.
	Table1 = experiment.Table1
	// Table1Row is one strategy's row of Table 1.
	Table1Row = experiment.Table1Row
	// SweepPoint is one Figure 5 measurement.
	SweepPoint = experiment.SweepPoint

	// FaultConfig parameterizes the Weibull memory-leak injector.
	FaultConfig = faultinject.Config

	// ServiceConfig describes a replicated service.
	ServiceConfig = replica.ServiceConfig
	// Replica is one warm-passive replica instance.
	Replica = replica.Replica
	// ExitReason reports why a replica instance terminated.
	ExitReason = replica.ExitReason

	// ClientConfig parameterizes a client recovery strategy.
	ClientConfig = client.Config
	// Strategy is a client under one recovery scheme.
	Strategy = client.Strategy
	// Outcome describes one invocation as the application saw it.
	Outcome = client.Outcome

	// Hub is the group-communication sequencer (the Spread stand-in).
	Hub = gcs.Hub
	// NamingServer is the Naming Service daemon.
	NamingServer = namesvc.Server
	// NamingClient is a session with the Naming Service: it connects on
	// first use, keeps that connection for every later call, and releases
	// it on Close.
	NamingClient = namesvc.Client

	// RecoveryConfig parameterizes the Recovery Manager.
	RecoveryConfig = recovery.Config
	// RecoveryManager relaunches failed replicas.
	RecoveryManager = recovery.Manager
	// Factory launches replica instances for the Recovery Manager.
	Factory = recovery.Factory
	// FactoryFunc adapts a function to Factory.
	FactoryFunc = recovery.FactoryFunc

	// Telemetry is a process-wide observability instance: lock-free
	// counters, latency histograms, and the bounded recovery-event trace.
	// All methods are nil-safe, so an unset *Telemetry disables
	// instrumentation with no further checks.
	Telemetry = telemetry.Telemetry
	// TelemetrySnapshot is a point-in-time histogram snapshot (count, sum,
	// max, quantiles).
	TelemetrySnapshot = telemetry.Snapshot
	// TraceEvent is one recovery-trace entry.
	TraceEvent = telemetry.Event
	// MetricsServer serves /metrics (Prometheus or JSON) and /trace (JSONL)
	// over HTTP.
	MetricsServer = telemetry.Server
	// HubOption configures the group-communication hub.
	HubOption = gcs.HubOption

	// Series is a labelled RTT series (Figures 3 and 4).
	Series = stats.Series
	// OutlierReport is the 3-sigma jitter analysis (Section 5.2.5).
	OutlierReport = stats.OutlierReport
	// Summary holds descriptive statistics of a duration series.
	Summary = stats.Summary
)

// The five recovery strategies of Table 1.
const (
	// ReactiveNoCache waits for a failure and re-resolves through the
	// Naming Service (baseline).
	ReactiveNoCache = ftmgr.ReactiveNoCache
	// ReactiveCache pre-resolves all replicas and walks the cache.
	ReactiveCache = ftmgr.ReactiveCache
	// NeedsAddressing masks abrupt failures via a group query and a
	// fabricated GIOP NEEDS_ADDRESSING_MODE reply.
	NeedsAddressing = ftmgr.NeedsAddressing
	// LocationForward migrates clients with fabricated GIOP
	// LOCATION_FORWARD replies carrying the next replica's IOR.
	LocationForward = ftmgr.LocationForward
	// MeadMessage piggybacks MEAD fail-over messages onto regular replies
	// and redirects the connection without retransmission.
	MeadMessage = ftmgr.MeadMessage
)

// Replica exit reasons.
const (
	ExitCrashed     = replica.ExitCrashed
	ExitRejuvenated = replica.ExitRejuvenated
	ExitStopped     = replica.ExitStopped
)

// Schemes lists all five strategies in Table 1 order.
func Schemes() []Scheme { return ftmgr.Schemes() }

// ParseScheme parses a Scheme's String form.
func ParseScheme(s string) (Scheme, error) { return ftmgr.ParseScheme(s) }

// Run executes one experiment scenario.
func Run(sc Scenario) (*Result, error) { return experiment.Run(sc) }

// NewDeployment boots a complete MEAD system for the scenario without
// driving a workload.
func NewDeployment(sc Scenario) (*Deployment, error) { return experiment.NewDeployment(sc) }

// RunTable1 runs all five strategies and derives the paper's Table 1.
func RunTable1(template Scenario) (*Table1, map[Scheme]*Result, error) {
	return experiment.RunTable1(template)
}

// BuildTable1 derives Table 1 from already-collected per-scheme results.
func BuildTable1(results map[Scheme]*Result) *Table1 { return experiment.BuildTable1(results) }

// RunThresholdSweep reproduces Figure 5 (bandwidth versus rejuvenation
// threshold).
func RunThresholdSweep(template Scenario, thresholds []float64, schemes []Scheme) ([]SweepPoint, error) {
	return experiment.RunThresholdSweep(template, thresholds, schemes)
}

// FormatSweep renders Figure 5's data as a table.
func FormatSweep(points []SweepPoint) string { return experiment.FormatSweep(points) }

// RunFaultFree runs the jitter baseline (no fault injection).
func RunFaultFree(template Scenario) (*Result, error) { return experiment.RunFaultFree(template) }

// NewHub returns an unstarted group-communication hub.
func NewHub(opts ...HubOption) *Hub { return gcs.NewHub(opts...) }

// WithHubTelemetry attaches telemetry to a hub (multicast and view-change
// counters).
func WithHubTelemetry(t *Telemetry) HubOption { return gcs.WithHubTelemetry(t) }

// NewTelemetry returns a telemetry instance labelled with scheme (usually a
// Scheme's String form; empty for scheme-less processes like the hub).
func NewTelemetry(scheme string) *Telemetry {
	return telemetry.New(telemetry.WithScheme(scheme))
}

// ServeMetrics starts an HTTP endpoint on addr exposing t at /metrics
// (Prometheus text format; JSON via ?format=json or Accept) and the
// recovery-event trace at /trace (JSONL).
func ServeMetrics(addr string, t *Telemetry) (*MetricsServer, error) {
	return telemetry.Serve(addr, t)
}

// NewNamingServer returns an unstarted Naming Service.
func NewNamingServer() *NamingServer { return namesvc.NewServer() }

// NewNamingClient returns a client for the Naming Service at addr. Close it
// when done: it holds one connection from its first call on.
func NewNamingClient(addr string) *NamingClient { return namesvc.NewClient(addr) }

// NewReplica returns an unstarted replica named name.
func NewReplica(name string, cfg ServiceConfig) (*Replica, error) { return replica.New(name, cfg) }

// NewRecoveryManager returns an unstarted Recovery Manager.
func NewRecoveryManager(cfg RecoveryConfig) (*RecoveryManager, error) { return recovery.New(cfg) }

// DialGroup connects a GCS member (needed by RecoveryConfig.Member).
func DialGroup(hubAddr, memberName string) (*gcs.Member, error) {
	return gcs.Dial(hubAddr, memberName)
}

// NewClient builds a client strategy.
func NewClient(cfg ClientConfig) (Strategy, error) { return client.New(cfg) }

// IDLFile is a parsed OMG IDL compilation unit.
type IDLFile = idl.File

// ParseIDL parses OMG IDL source (the subset in internal/idl).
func ParseIDL(src string) (*IDLFile, error) { return idl.Parse(src) }

// GenerateStubs emits Go client stubs and servant adapters for parsed IDL,
// as the cmd/mead-idl compiler does.
func GenerateStubs(f *IDLFile, pkg string) ([]byte, error) { return idl.Generate(f, pkg) }

// Summarize computes descriptive statistics over a duration series.
func Summarize(series []time.Duration) Summary { return stats.Summarize(series) }

// Outliers computes the 3-sigma outlier report of a duration series.
func Outliers(series []time.Duration) OutlierReport { return stats.Outliers(series) }
