// Package client implements the five client-side recovery strategies of
// Table 1: the two classical reactive baselines (with and without a cached
// reference list) and the client halves of the three proactive schemes.
// All strategies invoke the paper's test application: "a simple CORBA
// client ... requested the time-of-day at 1ms intervals from one of three
// warm-passively replicated CORBA servers".
package client

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"mead/internal/cdr"
	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/giop"
	"mead/internal/namesvc"
	"mead/internal/orb"
	"mead/internal/telemetry"
)

// Outcome describes one logical invocation as the client application
// experienced it: its end-to-end round-trip time (including any recovery
// actions), the CORBA exceptions that reached the application, and whether
// a fail-over happened underneath it.
type Outcome struct {
	// RTT is the wall-clock time from request start to the first
	// successful reply (or final failure).
	RTT time.Duration
	// Err is non-nil if the invocation ultimately failed.
	Err error
	// Exceptions lists the CORBA system exceptions the application
	// caught during this invocation ("COMM_FAILURE", "TRANSIENT").
	Exceptions []string
	// Failover reports that a recovery action (reactive retry or
	// transparent proactive hand-off) occurred during this invocation.
	Failover bool
	// Replica is the responding replica's name.
	Replica string
	// Timestamp is the server's reported time-of-day (ns).
	Timestamp int64
	// Counter is the server's replicated state counter.
	Counter uint64
}

// Strategy performs time-of-day invocations under one recovery scheme.
type Strategy interface {
	// Scheme identifies the strategy.
	Scheme() ftmgr.Scheme
	// Invoke performs one logical invocation.
	Invoke() Outcome
	// Close releases connections.
	Close() error
}

// Config parameterizes a client strategy.
type Config struct {
	// Scheme selects the strategy.
	Scheme ftmgr.Scheme
	// Service is the replicated service name.
	Service string
	// NamesAddr is the Naming Service endpoint.
	NamesAddr string
	// HubAddr is the GCS hub endpoint (NEEDS_ADDRESSING only).
	HubAddr string
	// MemberName is the client's GCS private name (NEEDS_ADDRESSING only).
	MemberName string
	// QueryTimeout is the NEEDS_ADDRESSING group-query window
	// (default 10 ms, as in the paper).
	QueryTimeout time.Duration
	// DialTimeout bounds connection attempts (default 2 s).
	DialTimeout time.Duration
	// MaxAttempts bounds recovery retries within one logical invocation
	// (default 8).
	MaxAttempts int
	// Dial opens every transport connection this strategy makes — ORB
	// connections, interceptor redirection dials, and the GCS member link.
	// The chaos harness substitutes netfault's injecting dialer; nil means
	// net.DialTimeout.
	Dial orb.DialFunc
	// SharedPool makes the client ORB's references share connections (one
	// per replica address, concurrent in-flight requests matched to their
	// callers by request id). Supported for the reactive
	// and LOCATION_FORWARD schemes; the interceptor-based schemes
	// (NEEDS_ADDRESSING, MEAD) assume one in-flight request per connection
	// and reject it.
	SharedPool bool
	// Telemetry, when set, is threaded through the ORB and interceptor and
	// additionally records application-visible exceptions (labelled with
	// the replica the client was bound to) and steady/fail-over round-trip
	// histograms.
	Telemetry *telemetry.Telemetry
	// ClientID is the at-most-once identity sent with every invocation:
	// retries of one logical invocation reuse its sequence number, so a
	// replica that already executed the request (including a replica that
	// restarted and replayed its durable dedup table) answers from cache
	// instead of re-executing. Empty derives a process-unique id; set it
	// explicitly only to correlate retransmissions across client restarts
	// (tests). Never reuse an id with a fresh sequence space against
	// durable replicas — the persisted table would suppress the new
	// client's early requests.
	ClientID string
}

func (c Config) group() string { return "mead." + c.Service }

// New builds the strategy for cfg.Scheme.
func New(cfg Config) (Strategy, error) {
	if cfg.Service == "" || cfg.NamesAddr == "" {
		return nil, errors.New("client: Service and NamesAddr required")
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.ClientID == "" {
		// Process-unique by construction: a restarted experiment (or a
		// fresh strategy over a reused state directory) must not collide
		// with a persisted dedup row for an earlier client.
		cfg.ClientID = fmt.Sprintf("c%d-%d", os.Getpid(), clientIDs.Add(1))
	}
	base := &base{
		cfg:   cfg,
		names: namesvc.NewClient(cfg.NamesAddr),
	}
	base.names.SetTelemetry(cfg.Telemetry)
	baseOpts := []orb.ClientOption{orb.WithDialTimeout(cfg.DialTimeout)}
	if cfg.Dial != nil {
		baseOpts = append(baseOpts, orb.WithDialer(cfg.Dial))
	}
	if cfg.Telemetry != nil {
		baseOpts = append(baseOpts, orb.WithTelemetry(cfg.Telemetry))
	}
	if cfg.SharedPool {
		switch cfg.Scheme {
		case ftmgr.ReactiveNoCache, ftmgr.ReactiveCache, ftmgr.LocationForward:
			baseOpts = append(baseOpts, orb.WithConnectionPool())
		default:
			return nil, fmt.Errorf("client: SharedPool is incompatible with scheme %v (its interceptor assumes one in-flight request per connection)", cfg.Scheme)
		}
	}
	switch cfg.Scheme {
	case ftmgr.ReactiveNoCache, ftmgr.ReactiveCache:
		base.orb = orb.NewClient(baseOpts...)
		return &reactive{base: base, cached: cfg.Scheme == ftmgr.ReactiveCache}, nil
	case ftmgr.LocationForward:
		// "The main advantage of this technique is that it does not
		// require an Interceptor at the client because the client ORB
		// handles the retransmission through native CORBA mechanisms."
		base.orb = orb.NewClient(baseOpts...)
		return &proactive{base: base, scheme: ftmgr.LocationForward}, nil
	case ftmgr.MeadMessage:
		cm, err := ftmgr.NewClientManager(ftmgr.ClientConfig{
			Scheme:      ftmgr.MeadMessage,
			DialTimeout: cfg.DialTimeout,
			Dial:        ftmgr.DialFunc(cfg.Dial),
			Telemetry:   cfg.Telemetry,
		})
		if err != nil {
			return nil, err
		}
		base.orb = orb.NewClient(append(baseOpts,
			orb.WithClientConnWrapper(cm.WrapClientConn))...)
		return &proactive{base: base, scheme: ftmgr.MeadMessage, cm: cm}, nil
	case ftmgr.NeedsAddressing:
		if cfg.HubAddr == "" {
			return nil, errors.New("client: NEEDS_ADDRESSING requires HubAddr")
		}
		name := cfg.MemberName
		if name == "" {
			name = fmt.Sprintf("client-%d", time.Now().UnixNano())
		}
		memberDial := gcs.DialFunc(cfg.Dial)
		if memberDial == nil {
			memberDial = net.DialTimeout
		}
		member, err := gcs.DialWith(memberDial, cfg.HubAddr, name)
		if err != nil {
			return nil, err
		}
		cm, err := ftmgr.NewClientManager(ftmgr.ClientConfig{
			Scheme:       ftmgr.NeedsAddressing,
			Member:       member,
			Group:        cfg.group(),
			QueryTimeout: cfg.QueryTimeout,
			DialTimeout:  cfg.DialTimeout,
			Dial:         ftmgr.DialFunc(cfg.Dial),
			Telemetry:    cfg.Telemetry,
		})
		if err != nil {
			_ = member.Close()
			return nil, err
		}
		base.orb = orb.NewClient(append(baseOpts,
			orb.WithClientConnWrapper(cm.WrapClientConn))...)
		return &proactive{base: base, scheme: ftmgr.NeedsAddressing, cm: cm, member: member}, nil
	default:
		return nil, fmt.Errorf("client: unknown scheme %v", cfg.Scheme)
	}
}

// clientIDs disambiguates derived ClientIDs within one process.
var clientIDs atomic.Uint64

// base holds the machinery shared by all strategies.
type base struct {
	cfg   Config
	orb   *orb.ClientORB
	names *namesvc.Client

	ref *orb.ObjectRef
	idx int // index (into the naming listing) of the current reference

	curReplica string // replica name of the current binding (telemetry label)
	curAddr    string // replica address of the current binding
	done       int    // completed logical invocations (for the warm-up skip)
	seq        uint64 // at-most-once sequence of the current logical invocation
}

// nextSeq advances the at-most-once sequence for a new logical invocation;
// every retry attempt within it reuses the same number.
func (b *base) nextSeq() { b.seq++ }

// bindTo records which replica the strategy is now bound to, for labelling
// exception events.
func (b *base) bindTo(entry namesvc.Entry) {
	b.curReplica = strings.TrimPrefix(entry.Name, b.cfg.Service+"/")
	b.curAddr, _ = entry.IOR.Addr()
}

// noteException emits the application-visible exception to the recovery
// trace, labelled with the replica the client was bound to when it surfaced.
func (b *base) noteException(name string) {
	tel := b.cfg.Telemetry
	if tel == nil {
		return
	}
	switch name {
	case "COMM_FAILURE":
		tel.CommFailureRaised(b.curReplica, b.curAddr)
	case "TRANSIENT":
		tel.TransientRaised(b.curReplica, b.curAddr)
	}
}

// record feeds the completed invocation into the steady or fail-over
// round-trip histogram. The first invocation is excluded from the steady
// histogram (Result.MeanSteadyRTT reads it): it carries the initial naming
// resolution and connection establishment.
func (b *base) record(out *Outcome) {
	b.done++
	tel := b.cfg.Telemetry
	if tel == nil {
		return
	}
	switch {
	case out.Failover || out.Err != nil:
		tel.FailoverInvoke(out.RTT)
	case b.done > 1:
		tel.SteadyInvoke(out.RTT)
	}
}

func (b *base) Close() error {
	var err error
	if b.ref != nil {
		err = b.ref.Close()
	}
	if b.orb != nil {
		_ = b.orb.Close()
	}
	_ = b.names.Close()
	return err
}

// resolveAt fetches the naming listing and binds to entry idx (mod len).
// This is the visible "resolve spike" of the reactive schemes: a round trip
// on the naming session the strategy holds, plus the connect to the replica.
func (b *base) resolveAt(idx int) error {
	entries, err := b.names.List(b.cfg.Service + "/")
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("client: no replicas bound under %q", b.cfg.Service)
	}
	b.idx = ((idx % len(entries)) + len(entries)) % len(entries)
	if b.ref != nil {
		_ = b.ref.Close()
	}
	b.ref = b.orb.Object(entries[b.idx].IOR)
	b.bindTo(entries[b.idx])
	return nil
}

// call performs the actual time_of_day invocation on the current reference,
// carrying the client's at-most-once identity as operation arguments.
func (b *base) call(out *Outcome) error {
	return b.ref.Invoke("time_of_day", func(e *cdr.Encoder) {
		e.WriteString(b.cfg.ClientID)
		e.WriteULongLong(b.seq)
	}, func(d *cdr.Decoder) error {
		ts, err := d.ReadLongLong()
		if err != nil {
			return err
		}
		counter, err := d.ReadULongLong()
		if err != nil {
			return err
		}
		name, err := d.ReadString()
		if err != nil {
			return err
		}
		out.Timestamp = ts
		out.Counter = counter
		out.Replica = name
		return nil
	})
}

// classify maps an invocation error to the exception name the application
// observes.
func classify(err error) (string, bool) {
	var se *giop.SystemException
	if !errors.As(err, &se) {
		return "", false
	}
	switch se.RepoID {
	case giop.RepoCommFailure:
		return "COMM_FAILURE", true
	case giop.RepoTransient:
		return "TRANSIENT", true
	default:
		return se.RepoID, true
	}
}
