package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventKind identifies one recovery-relevant action in the trace ring.
type EventKind uint8

// The recovery-event vocabulary. Each kind corresponds to one protocol or
// framework action (docs/PROTOCOL.md §9 maps them to GIOP/MEAD messages).
const (
	// EvRequestSent: a GIOP Request left the client (including
	// retransmissions of the same logical invocation).
	EvRequestSent EventKind = iota + 1
	// EvRetransmit: the client re-sent an in-flight request — the ORB's
	// NEEDS_ADDRESSING_MODE handling or the interceptor's write-side
	// replay after a transport swap.
	EvRetransmit
	// EvCommFailure: a CORBA COMM_FAILURE exception reached the client
	// application.
	EvCommFailure
	// EvTransient: a CORBA TRANSIENT exception reached the client
	// application (the stale-reference failure mode).
	EvTransient
	// EvLocationForward: the client ORB followed a LOCATION_FORWARD (or
	// OBJECT_FORWARD) reply to a new IOR.
	EvLocationForward
	// EvMeadFailover: the client interceptor consumed a MEAD fail-over
	// frame announcing the migration target.
	EvMeadFailover
	// EvConnSwapped: the client interceptor swapped the transport
	// underneath the unmodified ORB (dup2-equivalent).
	EvConnSwapped
	// EvThresholdCrossed: a server replica crossed a resource threshold
	// (Value holds the usage in percent).
	EvThresholdCrossed
	// EvReplicaKilled: the Recovery Manager observed a replica's
	// departure from the group (crash or rejuvenation).
	EvReplicaKilled
	// EvRecoveryStarted: a restarting replica began durable recovery
	// (Value holds the checkpoint's op number, before log replay).
	EvRecoveryStarted
	// EvLogReplayed: the replica finished replaying its local op log
	// (Value holds the number of records applied).
	EvLogReplayed
	// EvStateFetched: the recovery handshake merged a newer snapshot from
	// a live group member (Value holds the merged op number).
	EvStateFetched
	// EvStandbyReady: the client interceptor finished opening, ahead of
	// the hand-off, the connection a MEAD notice frame told it to warm.
	EvStandbyReady
)

var eventKindNames = [...]string{
	EvRequestSent:      "request-sent",
	EvRetransmit:       "retransmit",
	EvCommFailure:      "comm-failure",
	EvTransient:        "transient",
	EvLocationForward:  "location-forward",
	EvMeadFailover:     "mead-failover",
	EvConnSwapped:      "conn-swapped",
	EvThresholdCrossed: "threshold-crossed",
	EvReplicaKilled:    "replica-killed",
	EvRecoveryStarted:  "recovery-started",
	EvLogReplayed:      "log-replayed",
	EvStateFetched:     "state-fetched",
	EvStandbyReady:     "standby-ready",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its string name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// Event is one entry of the recovery-event trace.
type Event struct {
	// Seq is the event's global sequence number (monotonic per
	// Telemetry, never reset, so export consumers can detect ring
	// overwrites as gaps).
	Seq uint64 `json:"seq"`
	// At is the time since the Telemetry was created.
	At time.Duration `json:"at_ns"`
	// Kind identifies the action.
	Kind EventKind `json:"kind"`
	// Scheme is the recovery scheme label of the emitting Telemetry.
	Scheme string `json:"scheme,omitempty"`
	// Replica names the replica involved, when the emitter knows it
	// (recovery manager, threshold machinery).
	Replica string `json:"replica,omitempty"`
	// Addr is the remote transport address involved, when the emitter
	// sits at the wire level (ORB, interceptor).
	Addr string `json:"addr,omitempty"`
	// Value carries an optional numeric payload (threshold percent).
	Value int64 `json:"value,omitempty"`
}

// DefaultTraceCapacity bounds the ring when WithTraceCapacity is not given.
const DefaultTraceCapacity = 4096

// Trace is a bounded ring buffer of recovery events. Appends are
// mutex-serialized but allocation-free: the ring is preallocated and event
// string fields alias strings the emitter already holds. When the ring is
// full the oldest events are overwritten (Dropped counts them); Seq numbers
// keep growing, so an export shows the gap.
type Trace struct {
	mu      sync.Mutex
	ring    []Event
	next    uint64 // total events ever recorded == next Seq
	dropped uint64
}

func newTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Trace{ring: make([]Event, capacity)}
}

// record appends one event, stamping Seq. ev.At must already be set.
func (tr *Trace) record(ev Event) {
	tr.mu.Lock()
	ev.Seq = tr.next
	if tr.next >= uint64(len(tr.ring)) {
		tr.dropped++
	}
	tr.ring[tr.next%uint64(len(tr.ring))] = ev
	tr.next++
	tr.mu.Unlock()
}

// Len returns how many events are currently held (at most the capacity).
func (tr *Trace) Len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.next < uint64(len(tr.ring)) {
		return int(tr.next)
	}
	return len(tr.ring)
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (tr *Trace) Dropped() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.dropped
}

// Events returns the retained events oldest-first. The returned slice is a
// copy owned by the caller; the ring keeps recording concurrently.
func (tr *Trace) Events() []Event {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := uint64(len(tr.ring))
	start := uint64(0)
	count := tr.next
	if tr.next > n {
		start = tr.next - n
		count = n
	}
	out := make([]Event, 0, count)
	for s := start; s < tr.next; s++ {
		out = append(out, tr.ring[s%n])
	}
	return out
}

// WriteJSONL exports the retained events as one JSON object per line. The
// events are snapshotted first (see Events), so the writer may be slow
// without blocking recorders; the exported copy does not alias ring memory.
func (tr *Trace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range tr.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
