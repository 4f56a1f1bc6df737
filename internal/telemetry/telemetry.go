// Package telemetry is mead's zero-steady-state-allocation observability
// layer: lock-free shard-striped counters, fixed-bucket log-linear latency
// histograms (p50/p99/max without storing samples), and a bounded
// ring-buffer trace of recovery events with JSONL export.
//
// Every instrumentation method is nil-safe: a nil *Telemetry is a no-op, so
// call sites never branch and uninstrumented configurations pay only an
// inlined nil check. None of the recording paths allocate: counters and
// histogram buckets are preallocated atomics, and trace events are written
// into a preallocated ring whose string fields alias strings the emitter
// already holds.
package telemetry

import (
	"time"
)

// Telemetry aggregates every metric mead emits. One instance is shared per
// process (or per experiment deployment); all methods are safe for
// concurrent use and no-ops on a nil receiver.
type Telemetry struct {
	scheme string
	start  time.Time

	// Client-side wire activity (ORB + interceptor).
	RequestsSent     Counter // GIOP Requests written (incl. retransmissions)
	RepliesReceived  Counter // GIOP Replies matched to a request
	Retransmits      Counter // requests re-sent after NEEDS_ADDRESSING or swap
	LocationForwards Counter // LOCATION_FORWARD replies followed
	CommFailures     Counter // COMM_FAILURE exceptions surfaced to the app
	Transients       Counter // TRANSIENT exceptions surfaced to the app
	StaleReplies     Counter // replies discarded (no matching request)
	ConnsOpened      Counter // client transports dialed
	ConnSwaps        Counter // interceptor transport swaps (dup2-equivalent)
	MeadFailovers    Counter // MEAD fail-over frames consumed
	StandbysReady    Counter // connections warmed ahead of a MEAD hand-off

	// Server / framework activity.
	ServerRequests     Counter // requests dispatched by the server ORB
	ThresholdCrossings Counter // resource thresholds crossed
	ReplicasKilled     Counter // replica departures seen by recovery mgr
	Relaunches         Counter // replicas (re)launched by recovery mgr
	Multicasts         Counter // GCS messages delivered to members
	ViewChanges        Counter // GCS view changes emitted
	NameOps            Counter // naming-service operations served
	NamingDials        Counter // connections naming clients dialed
	NamingSessions     Gauge   // connections the naming server holds open
	GroupFrames        Counter // GCS frames the hub wrote to members
	GroupWrites        Counter // transport writes that carried them
	SlowConsumerDrops  Counter // members the hub dropped on a full queue

	// Durable-state subsystem (internal/durable + recovery handshake).
	OpsLogged            Counter // op records appended to the durable log
	OpsReplayed          Counter // log records replayed during recovery
	DupsSuppressed       Counter // retransmissions answered from the dedup table
	CheckpointsPersisted Counter // durable checkpoints written (incl. backups)
	LogTruncations       Counter // damaged log tails truncated at recovery

	// Resource-leak progression (faultinject).
	LeakBytes    Gauge // bytes currently consumed by the injected leak
	LeakCapacity Gauge // budget capacity the leak runs against

	// Latency distributions, all in nanoseconds.
	InvokeRTT    Histogram // every client invocation round-trip
	SteadyRTT    Histogram // fault-free invocations (per-scheme Table 1)
	FailoverRTT  Histogram // invocations that crossed a fail-over
	DispatchTime Histogram // server-side servant dispatch duration

	trace *Trace
}

// Option configures New.
type Option func(*Telemetry)

// WithScheme labels every trace event with the recovery scheme under test.
func WithScheme(scheme string) Option {
	return func(t *Telemetry) { t.scheme = scheme }
}

// WithTraceCapacity bounds the recovery-event ring (default
// DefaultTraceCapacity).
func WithTraceCapacity(n int) Option {
	return func(t *Telemetry) { t.trace = newTrace(n) }
}

// New builds a Telemetry with its trace ring preallocated.
func New(opts ...Option) *Telemetry {
	t := &Telemetry{start: time.Now()}
	for _, o := range opts {
		o(t)
	}
	if t.trace == nil {
		t.trace = newTrace(DefaultTraceCapacity)
	}
	return t
}

// Scheme returns the scheme label (empty on nil).
func (t *Telemetry) Scheme() string {
	if t == nil {
		return ""
	}
	return t.scheme
}

// Trace exposes the recovery-event ring (nil on a nil Telemetry).
func (t *Telemetry) Trace() *Trace {
	if t == nil {
		return nil
	}
	return t.trace
}

// Events returns a copy of the retained trace events (nil-safe).
func (t *Telemetry) Events() []Event {
	if t == nil {
		return nil
	}
	return t.trace.Events()
}

func (t *Telemetry) event(kind EventKind, replica, addr string, value int64) {
	t.trace.record(Event{
		At:      time.Since(t.start),
		Kind:    kind,
		Scheme:  t.scheme,
		Replica: replica,
		Addr:    addr,
		Value:   value,
	})
}

// --- Client-side wire instrumentation (ORB + interceptor) ---

// RequestSent records one GIOP Request written to addr.
func (t *Telemetry) RequestSent(addr string) {
	if t == nil {
		return
	}
	t.RequestsSent.Inc()
	t.event(EvRequestSent, "", addr, 0)
}

// ReplyReceived records one matched GIOP Reply and its round-trip time.
func (t *Telemetry) ReplyReceived(rtt time.Duration) {
	if t == nil {
		return
	}
	t.RepliesReceived.Inc()
	t.InvokeRTT.Observe(rtt)
}

// Retransmitted records a re-send of an in-flight request to addr.
func (t *Telemetry) Retransmitted(addr string) {
	if t == nil {
		return
	}
	t.Retransmits.Inc()
	t.event(EvRetransmit, "", addr, 0)
}

// ForwardTaken records a LOCATION_FORWARD reply being followed to addr.
func (t *Telemetry) ForwardTaken(addr string) {
	if t == nil {
		return
	}
	t.LocationForwards.Inc()
	t.event(EvLocationForward, "", addr, 0)
}

// CommFailureRaised records a COMM_FAILURE surfacing to the application
// while bound to the named replica.
func (t *Telemetry) CommFailureRaised(replica, addr string) {
	if t == nil {
		return
	}
	t.CommFailures.Inc()
	t.event(EvCommFailure, replica, addr, 0)
}

// TransientRaised records a TRANSIENT surfacing to the application while
// bound to the named replica.
func (t *Telemetry) TransientRaised(replica, addr string) {
	if t == nil {
		return
	}
	t.Transients.Inc()
	t.event(EvTransient, replica, addr, 0)
}

// FailoverReceived records a MEAD fail-over frame naming addr as the new
// primary.
func (t *Telemetry) FailoverReceived(addr string) {
	if t == nil {
		return
	}
	t.MeadFailovers.Inc()
	t.event(EvMeadFailover, "", addr, 0)
}

// StandbyReady records the interceptor holding an open connection to addr,
// the target a MEAD notice frame named, ahead of the hand-off.
func (t *Telemetry) StandbyReady(addr string) {
	if t == nil {
		return
	}
	t.StandbysReady.Inc()
	t.event(EvStandbyReady, "", addr, 0)
}

// ConnSwapped records the interceptor swapping the transport under the ORB
// to addr.
func (t *Telemetry) ConnSwapped(addr string) {
	if t == nil {
		return
	}
	t.ConnSwaps.Inc()
	t.event(EvConnSwapped, "", addr, 0)
}

// StaleReply records a reply that matched no in-flight request.
func (t *Telemetry) StaleReply() {
	if t == nil {
		return
	}
	t.StaleReplies.Inc()
}

// ConnOpened records a client transport dialed to addr (counter only; dials
// are routine, not recovery events).
func (t *Telemetry) ConnOpened(addr string) {
	if t == nil {
		return
	}
	_ = addr
	t.ConnsOpened.Inc()
}

// --- Server / framework instrumentation ---

// Dispatched records one server-side servant dispatch.
func (t *Telemetry) Dispatched(d time.Duration) {
	if t == nil {
		return
	}
	t.ServerRequests.Inc()
	t.DispatchTime.Observe(d)
}

// ThresholdCrossed records the named replica crossing a resource threshold
// at the given usage percentage.
func (t *Telemetry) ThresholdCrossed(replica string, pct int64) {
	if t == nil {
		return
	}
	t.ThresholdCrossings.Inc()
	t.event(EvThresholdCrossed, replica, "", pct)
}

// ReplicaKilled records the recovery manager observing the named replica
// leave the group.
func (t *Telemetry) ReplicaKilled(replica string) {
	if t == nil {
		return
	}
	t.ReplicasKilled.Inc()
	t.event(EvReplicaKilled, replica, "", 0)
}

// Relaunched records the recovery manager (re)launching the named replica
// (counter only; the kill that preceded it is the recovery event).
func (t *Telemetry) Relaunched(replica string) {
	if t == nil {
		return
	}
	_ = replica
	t.Relaunches.Inc()
}

// --- Durable-state instrumentation ---

// OpLogged records one op record handed to the durable log (hot path:
// counter only, no trace event).
func (t *Telemetry) OpLogged() {
	if t == nil {
		return
	}
	t.OpsLogged.Inc()
}

// DupSuppressed records one retransmission answered from the at-most-once
// dedup table instead of re-executing (hot path: counter only).
func (t *Telemetry) DupSuppressed() {
	if t == nil {
		return
	}
	t.DupsSuppressed.Inc()
}

// RecoveryStarted records the named replica beginning durable recovery,
// with the checkpoint's op number (before log replay) as the value.
func (t *Telemetry) RecoveryStarted(replica string, checkpointOp int64) {
	if t == nil {
		return
	}
	t.event(EvRecoveryStarted, replica, "", checkpointOp)
}

// LogReplayed records the named replica finishing local log replay: n
// records applied, and whether a damaged tail was truncated along the way.
func (t *Telemetry) LogReplayed(replica string, n int64, truncated bool) {
	if t == nil {
		return
	}
	if n > 0 {
		t.OpsReplayed.Add(uint64(n))
	}
	if truncated {
		t.LogTruncations.Inc()
	}
	t.event(EvLogReplayed, replica, "", n)
}

// StateFetched records the recovery handshake merging a newer snapshot into
// the named replica, with the merged op number as the value.
func (t *Telemetry) StateFetched(replica string, opNumber int64) {
	if t == nil {
		return
	}
	t.event(EvStateFetched, replica, "", opNumber)
}

// CheckpointPersisted records one durable checkpoint written by the named
// replica (counter only; routine, not a recovery event).
func (t *Telemetry) CheckpointPersisted(replica string) {
	if t == nil {
		return
	}
	_ = replica
	t.CheckpointsPersisted.Inc()
}

// LeakSample records the injected leak's current level against its budget.
func (t *Telemetry) LeakSample(used, capacity int64) {
	if t == nil {
		return
	}
	t.LeakBytes.Set(used)
	t.LeakCapacity.Set(capacity)
}

// Multicast records one GCS payload delivery to a member.
func (t *Telemetry) Multicast() {
	if t == nil {
		return
	}
	t.Multicasts.Inc()
}

// ViewChange records one GCS view emission.
func (t *Telemetry) ViewChange() {
	if t == nil {
		return
	}
	t.ViewChanges.Inc()
}

// GroupWrite records one hub-to-member transport write carrying frames
// queued frames.
func (t *Telemetry) GroupWrite(frames int) {
	if t == nil {
		return
	}
	t.GroupFrames.Add(uint64(frames))
	t.GroupWrites.Inc()
}

// SlowConsumerDrop records the hub disconnecting a member whose delivery
// queue filled up.
func (t *Telemetry) SlowConsumerDrop() {
	if t == nil {
		return
	}
	t.SlowConsumerDrops.Inc()
}

// NameOp records one naming-service operation served.
func (t *Telemetry) NameOp() {
	if t == nil {
		return
	}
	t.NameOps.Inc()
}

// NamingDial records a naming client opening a connection: once per
// session, and once more when it finds the session stale.
func (t *Telemetry) NamingDial() {
	if t == nil {
		return
	}
	t.NamingDials.Inc()
}

// NamingSession records the naming server accepting (+1) or releasing (-1)
// a client connection.
func (t *Telemetry) NamingSession(delta int64) {
	if t == nil {
		return
	}
	t.NamingSessions.Add(delta)
}

// --- Experiment measurement ---

// SteadyInvoke records a fault-free invocation round-trip.
func (t *Telemetry) SteadyInvoke(d time.Duration) {
	if t == nil {
		return
	}
	t.SteadyRTT.Observe(d)
}

// FailoverInvoke records an invocation that spanned a fail-over.
func (t *Telemetry) FailoverInvoke(d time.Duration) {
	if t == nil {
		return
	}
	t.FailoverRTT.Observe(d)
}
