// Package netfault is a deterministic, seedable wire-fault injection layer
// for the MEAD transport stack. It wraps the TCP connections *under* the
// interceptor boundary (the same layer the paper's LD_PRELOAD interceptor
// owns), so every recovery scheme — reactive or proactive — experiences
// faults exactly where a real deployment would: on the wire, beneath an
// unmodified ORB.
//
// Faults are scheduled by a Plan: a list of named Events keyed on the
// global count of outbound GIOP Request frames (the invocation count), so a
// single seed plus a plan reproduces the identical fault sequence on every
// run. The injectable conditions cover the messy failure modes that
// message-logging and checkpointing systems treat as first class: abrupt
// resets mid-frame and between frames, read/write latency with seeded
// jitter, short writes that split a GIOP frame across TCP segments, silent
// half-open blackholes, duplicated reply frames, and one-way partitions of
// a host:port pair.
//
// The injector hands out wrapped connections through DialTimeout (matching
// the dialer signature of orb.WithDialer, ftmgr.ClientConfig.Dial and
// gcs.DialWith) or Wrap (for accepted, server-side connections). Non-GIOP
// streams (the GCS wire protocol) are handled in an opaque byte mode where
// latency and segmentation still apply.
package netfault

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"
)

// FaultKind identifies one injectable wire condition.
type FaultKind int

// Fault kinds.
const (
	// CutRequestMidFrame writes half of the triggering request frame,
	// then resets the connection: the peer discards the truncated frame,
	// so the request is never executed.
	CutRequestMidFrame FaultKind = iota + 1
	// CutAfterRequest writes the triggering request frame in full, then
	// resets the connection before the reply can arrive: the request
	// executes but its reply is lost (CORBA's COMPLETED_MAYBE case).
	CutAfterRequest
	// CutReplyMidFrame delivers only the first half of the next inbound
	// GIOP Reply frame, then resets: the request executed, the client saw
	// a torn reply.
	CutReplyMidFrame
	// Latency delays every affected request frame (and the next inbound
	// frame it provokes) by Event.Latency plus a seeded uniform jitter in
	// [0, Event.Jitter). Windowed.
	Latency
	// ShortWrites splits every affected outbound frame into
	// Event.SegmentBytes-sized Write calls, exercising the peer's frame
	// reassembly. Windowed.
	ShortWrites
	// Blackhole silently swallows the triggering request and everything
	// after it — writes succeed but carry nothing, reads stall — for
	// Event.Hold, after which the connection resets (the half-open
	// connection finally dying, as a TCP retransmission timeout would).
	Blackhole
	// DuplicateReply delivers the next inbound GIOP Reply frame twice.
	DuplicateReply
	// Partition cuts the client->server direction of the triggering
	// connection's host:port for Event.Heal: new dials to that address
	// are refused, the triggering connection swallows writes and resets
	// after Event.Hold. The reverse direction is unaffected (one-way).
	Partition
)

func (k FaultKind) String() string {
	switch k {
	case CutRequestMidFrame:
		return "cut-request-mid-frame"
	case CutAfterRequest:
		return "cut-after-request"
	case CutReplyMidFrame:
		return "cut-reply-mid-frame"
	case Latency:
		return "latency"
	case ShortWrites:
		return "short-writes"
	case Blackhole:
		return "blackhole"
	case DuplicateReply:
		return "duplicate-reply"
	case Partition:
		return "partition"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// windowed reports whether the kind stays active over a span of requests
// (true) or fires exactly once at Event.At (false).
func (k FaultKind) windowed() bool { return k == Latency || k == ShortWrites }

// Event schedules one fault. Events are keyed on the injector's global
// outbound GIOP Request count: the first request through any injected
// connection is request 0.
type Event struct {
	// Name labels the event in Fired accounting (defaults to Kind.String).
	Name string
	// Kind selects the fault.
	Kind FaultKind
	// At is the 0-based global request ordinal that triggers the event.
	At int
	// For widens windowed kinds (Latency, ShortWrites) to the requests
	// [At, At+For); 0 means width 1, a negative For means "active
	// forever" (used for opaque, non-request streams such as the GCS
	// wire, which never advance the request counter).
	For int
	// Addr restricts the event to connections whose dial target is this
	// host:port; empty matches any connection.
	Addr string
	// Latency and Jitter parameterize Latency events (and the pacing of
	// ShortWrites segments, when set).
	Latency time.Duration
	Jitter  time.Duration
	// SegmentBytes is the ShortWrites segment size.
	SegmentBytes int
	// Hold is how long a Blackhole or Partition connection stalls before
	// it resets (default 20ms).
	Hold time.Duration
	// Heal is how long a Partition refuses new dials to the address,
	// measured from the trigger (default: Hold, i.e. the partition heals
	// exactly when the stalled connection dies).
	Heal time.Duration
}

func (e Event) name() string {
	if e.Name != "" {
		return e.Name
	}
	return e.Kind.String()
}

// matches reports whether the event applies to request ordinal req on a
// connection to addr.
func (e Event) matches(req int, addr string) bool {
	if e.Addr != "" && e.Addr != addr {
		return false
	}
	if e.Kind.windowed() {
		if e.For < 0 {
			return req >= e.At
		}
		width := e.For
		if width == 0 {
			width = 1
		}
		return req >= e.At && req < e.At+width
	}
	return req == e.At
}

// Plan is a schedule of fault events. The zero value injects nothing.
type Plan []Event

// Validate rejects malformed plans before a run starts.
func (p Plan) Validate() error {
	for i, e := range p {
		if e.Kind < CutRequestMidFrame || e.Kind > Partition {
			return fmt.Errorf("netfault: event %d (%s): unknown kind %d", i, e.name(), int(e.Kind))
		}
		if e.At < 0 {
			return fmt.Errorf("netfault: event %d (%s): negative At", i, e.name())
		}
		if e.Kind == ShortWrites && e.SegmentBytes <= 0 {
			return fmt.Errorf("netfault: event %d (%s): ShortWrites needs SegmentBytes", i, e.name())
		}
		if e.Kind == Latency && e.Latency <= 0 && e.Jitter <= 0 {
			return fmt.Errorf("netfault: event %d (%s): Latency needs Latency or Jitter", i, e.name())
		}
	}
	return nil
}

// defaultHold bounds how long blackholed/partitioned connections stall
// before dying; the analogue of a (greatly compressed) TCP retransmission
// timeout.
const defaultHold = 20 * time.Millisecond

// DialFunc is the transport dial signature shared by orb.WithDialer,
// ftmgr.ClientConfig.Dial and gcs.DialWith.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// Injector executes a Plan over the connections it wraps. All randomness
// (latency jitter) comes from a single seeded PRNG, and all triggers are
// keyed on the deterministic request count, so two runs with the same seed
// and plan inject the identical fault sequence.
type Injector struct {
	mu         sync.Mutex
	plan       Plan
	rng        *rand.Rand
	requests   int
	fired      map[string]int
	oneShot    map[int]bool         // plan index -> already fired
	partitions map[string]time.Time // addr -> dials refused until
}

// NewInjector builds an injector for the plan, seeded for reproducible
// jitter. The plan must Validate.
func NewInjector(seed int64, plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		plan:       plan,
		rng:        rand.New(rand.NewSource(seed)),
		fired:      make(map[string]int),
		oneShot:    make(map[int]bool),
		partitions: make(map[string]time.Time),
	}, nil
}

// DialTimeout dials addr and wraps the connection for injection; it
// matches DialFunc, so it plugs into orb.WithDialer, ftmgr redirection
// dials and gcs.DialWith directly. Dials to a partitioned address are
// refused with ECONNREFUSED until the partition heals.
func (i *Injector) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	i.mu.Lock()
	until, cut := i.partitions[addr]
	i.mu.Unlock()
	if cut && time.Now().Before(until) {
		return nil, &net.OpError{Op: "dial", Net: network, Addr: nil,
			Err: syscall.ECONNREFUSED}
	}
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return i.Wrap(c, addr), nil
}

// Wrap interposes the injector on an existing connection (an accepted
// server-side conn, or a transport dialed elsewhere). addr is the peer
// host:port used for Event.Addr matching.
func (i *Injector) Wrap(c net.Conn, addr string) net.Conn {
	return newConn(i, c, addr)
}

// Requests returns how many outbound GIOP Request frames the injector has
// observed (the global event clock).
func (i *Injector) Requests() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.requests
}

// Fired returns how many times the named event applied to a frame.
func (i *Injector) Fired(name string) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired[name]
}

// FiredAll snapshots the per-event application counts.
func (i *Injector) FiredAll() map[string]int {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[string]int, len(i.fired))
	for k, v := range i.fired {
		out[k] = v
	}
	return out
}

// FiredTotal sums Fired over the given event names (all events when none
// are named).
func (i *Injector) FiredTotal(names ...string) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	if len(names) == 0 {
		total := 0
		for _, v := range i.fired {
			total += v
		}
		return total
	}
	total := 0
	for _, n := range names {
		total += i.fired[n]
	}
	return total
}

// action is the fault set resolved for one outbound request frame.
type action struct {
	latency       time.Duration
	segment       int
	segmentPace   time.Duration
	cutRequestMid bool
	cutAfter      bool
	cutReplyMid   bool
	dupReply      bool
	blackhole     bool
	partition     bool
	hold          time.Duration
	heal          time.Duration
}

// takeRequest consumes one tick of the request clock for a connection to
// addr and resolves the actions to apply to that request.
func (i *Injector) takeRequest(addr string) action {
	i.mu.Lock()
	defer i.mu.Unlock()
	req := i.requests
	i.requests++
	var a action
	for idx, e := range i.plan {
		if !e.matches(req, addr) {
			continue
		}
		if !e.Kind.windowed() {
			if i.oneShot[idx] {
				continue
			}
			i.oneShot[idx] = true
		}
		i.fired[e.name()]++
		i.applyLocked(&a, e, addr)
	}
	return a
}

// passiveActions resolves the windowed faults currently active for an
// opaque (non-GIOP) stream to addr, without advancing the request clock.
func (i *Injector) passiveActions(addr string) action {
	i.mu.Lock()
	defer i.mu.Unlock()
	var a action
	for _, e := range i.plan {
		if !e.Kind.windowed() || !e.matches(i.requests, addr) {
			continue
		}
		i.fired[e.name()]++
		i.applyLocked(&a, e, addr)
	}
	return a
}

// applyLocked folds event e into the action. Callers hold i.mu.
func (i *Injector) applyLocked(a *action, e Event, addr string) {
	switch e.Kind {
	case Latency:
		d := e.Latency
		if e.Jitter > 0 {
			d += time.Duration(i.rng.Int63n(int64(e.Jitter)))
		}
		a.latency += d
	case ShortWrites:
		a.segment = e.SegmentBytes
		a.segmentPace = e.Latency
	case CutRequestMidFrame:
		a.cutRequestMid = true
	case CutAfterRequest:
		a.cutAfter = true
	case CutReplyMidFrame:
		a.cutReplyMid = true
	case DuplicateReply:
		a.dupReply = true
	case Blackhole:
		a.blackhole = true
		a.hold = holdOrDefault(e.Hold)
	case Partition:
		a.partition = true
		a.hold = holdOrDefault(e.Hold)
		a.heal = e.Heal
		if a.heal <= 0 {
			a.heal = a.hold
		}
		i.partitions[addr] = time.Now().Add(a.heal)
	}
}

func holdOrDefault(d time.Duration) time.Duration {
	if d <= 0 {
		return defaultHold
	}
	return d
}

// errReset fabricates the error signature of an abrupt peer reset, which
// interceptor.Conn (via isStreamEnd) and the ORB treat exactly like a
// crashed replica's RST.
func errReset(op string) error {
	return &net.OpError{Op: op, Net: "tcp", Err: syscall.ECONNRESET}
}
