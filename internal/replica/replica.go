// Package replica assembles one warm-passively replicated server node, the
// unit the paper deploys on each Emulab machine: an unmodified mini-ORB
// serving the time-of-day application, wrapped by the MEAD interceptor with
// the Proactive Fault-Tolerance Manager embedded in it, a memory-leak fault
// injector, group membership through the GCS, registration with the Naming
// Service, and periodic state transfer from the primary to the backups.
package replica

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mead/internal/cdr"
	"mead/internal/durable"
	"mead/internal/faultinject"
	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/giop"
	"mead/internal/namesvc"
	"mead/internal/orb"
	"mead/internal/resource"
	"mead/internal/telemetry"
)

// ExitReason records why a replica instance terminated.
type ExitReason int

// Exit reasons.
const (
	// ExitCrashed: the injected resource-exhaustion fault killed the
	// process abruptly.
	ExitCrashed ExitReason = iota + 1
	// ExitRejuvenated: the proactive framework migrated all clients away
	// and gracefully restarted the replica at quiescence.
	ExitRejuvenated
	// ExitStopped: administrative shutdown.
	ExitStopped
)

func (r ExitReason) String() string {
	switch r {
	case ExitCrashed:
		return "crashed"
	case ExitRejuvenated:
		return "rejuvenated"
	case ExitStopped:
		return "stopped"
	default:
		return fmt.Sprintf("ExitReason(%d)", int(r))
	}
}

// DefaultCheckpointEvery is the warm-passive state-transfer period.
const DefaultCheckpointEvery = 50 * time.Millisecond

// checkpointLogBytes is the log growth that triggers an incremental durable
// checkpoint (snapshot + log-suffix truncation).
const checkpointLogBytes = 32 << 10

// ObjectName is the single application object each replica hosts.
const ObjectName = "clock"

// typeID is the CORBA repository id of the application object.
const typeID = "IDL:mead/TimeOfDay:1.0"

// ServiceConfig describes the replicated service a replica belongs to; all
// replicas of a service share one ServiceConfig (modulo Seed derivation).
type ServiceConfig struct {
	// Service is the service name (naming-context prefix and group stem).
	Service string
	// HubAddr is the GCS hub endpoint.
	HubAddr string
	// NamesAddr is the Naming Service endpoint.
	NamesAddr string
	// Scheme selects the recovery strategy.
	Scheme ftmgr.Scheme
	// LaunchThreshold and MigrateThreshold configure the FT manager
	// (zero means the ftmgr defaults of 80% / 90%).
	LaunchThreshold  float64
	MigrateThreshold float64
	// Fault parameterizes the memory-leak injector.
	Fault faultinject.Config
	// InjectFault enables the leak (on the first client request).
	InjectFault bool
	// CheckpointEvery is the state-transfer period (default 50 ms).
	CheckpointEvery time.Duration
	// AdaptiveLeadTime, when non-zero, enables adaptive migration
	// thresholds (the paper's future-work extension): the threshold is
	// derived from the observed leak trend so that migration starts with
	// roughly this much hand-off time remaining.
	AdaptiveLeadTime time.Duration
	// Objects is the number of application objects each replica hosts
	// (default 1: the paper's single time-of-day object). The paper
	// predicts the LOCATION_FORWARD scheme's bookkeeping "will increase
	// significantly" with this number, "since it maintains an IOR entry
	// for each object instantiated"; the object-table scaling bench
	// measures that claim.
	Objects int
	// StateDir, when non-empty, enables the durable-state subsystem: each
	// replica persists an append-only op log plus incremental checkpoints
	// under StateDir/<replica-name> and runs the recovery handshake
	// (replay local log, then fetch the delta from live group members) on
	// startup. Empty keeps the purely in-memory warm-passive behaviour.
	StateDir string
	// DurableFaults, when non-nil, injects deterministic durable-I/O
	// faults (torn/short writes, fsync errors) into every replica store
	// sharing this config — the chaos harness's disk-damage hook.
	DurableFaults *durable.FaultInjector
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...interface{})
	// Telemetry, when set, is threaded into the server ORB (dispatch
	// histogram), the FT manager (threshold-crossing events), and the fault
	// injector (leak-level gauges).
	Telemetry *telemetry.Telemetry
}

// Group returns the service's GCS group name ("new server replicas join a
// unique server-specific group as soon as they are launched").
func (c ServiceConfig) Group() string { return "mead." + c.Service }

// BindingName returns the replica's Naming Service name.
func (c ServiceConfig) BindingName(replica string) string {
	return c.Service + "/" + replica
}

// Replica is one running replica instance. A restarted replica is a new
// Replica value (fresh budget, fresh connections), as a restarted process
// would be.
type Replica struct {
	name string
	cfg  ServiceConfig

	budget   *resource.Budget
	injector *faultinject.Injector
	state    *clockState
	addr     string // the ORB endpoint, kept past exit for trace attribution

	// The instance's connection, manager, ORB and store graphs. Start sets
	// them and exit clears them once everything that runs on them has
	// stopped, so an exited instance — a harness keeps those for their
	// Done/ExitReason/Requests — pins no queues or buffers. The loops and
	// servants, which exit waits for, read them directly; the accessors and
	// maybeRejuvenate, which can run later, go through live().
	liveMu sync.Mutex
	member *gcs.Member
	mgr    *ftmgr.Manager
	srv    *orb.ServerORB
	store  *durable.Store

	clientIDs     *cdr.Interner
	recoveryNonce uint64

	requests atomic.Int64

	exitOnce sync.Once
	exiting  atomic.Bool // set as exit begins: a dead process answers nothing
	reason   ExitReason
	done     chan struct{}
	loopWG   sync.WaitGroup
}

// New returns an unstarted replica named name.
func New(name string, cfg ServiceConfig) (*Replica, error) {
	if name == "" || cfg.Service == "" {
		return nil, errors.New("replica: name and service required")
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	return &Replica{
		name: name,
		cfg:  cfg,
		done: make(chan struct{}),
	}, nil
}

// Name returns the replica's name.
func (r *Replica) Name() string { return r.name }

// Addr returns the replica's ORB endpoint (after Start).
func (r *Replica) Addr() string { return r.addr }

// live returns the manager and ORB, or nils once the instance has exited.
func (r *Replica) live() (*ftmgr.Manager, *orb.ServerORB) {
	r.liveMu.Lock()
	defer r.liveMu.Unlock()
	return r.mgr, r.srv
}

// Requests returns how many application requests this instance served.
func (r *Replica) Requests() int64 { return r.requests.Load() }

// StateCounter returns the servant's replicated counter.
func (r *Replica) StateCounter() uint64 {
	if r.state == nil {
		return 0
	}
	return r.state.Counter()
}

// OpNumber returns the number of the last operation the replica executed or
// merged, durable or not.
func (r *Replica) OpNumber() uint64 {
	if r.state == nil {
		return 0
	}
	return r.state.OpNumber()
}

// Budget exposes the replica's resource budget (tests and examples).
func (r *Replica) Budget() *resource.Budget { return r.budget }

// Manager exposes the embedded fault-tolerance manager (nil once the
// instance has exited).
func (r *Replica) Manager() *ftmgr.Manager {
	mgr, _ := r.live()
	return mgr
}

// Done is closed when the replica instance has terminated.
func (r *Replica) Done() <-chan struct{} { return r.done }

// ExitReason is valid after Done is closed.
func (r *Replica) ExitReason() ExitReason { return r.reason }

// Start brings the replica up: budget, injector, GCS membership, ORB,
// naming registration, announcement, delivery and checkpoint loops.
func (r *Replica) Start() (err error) {
	defer func() {
		if err != nil {
			r.cleanupPartial()
			err = fmt.Errorf("replica %s: %w", r.name, err)
		}
	}()
	if r.budget, err = faultinject.NewBudget(r.cfg.Fault); err != nil {
		return err
	}
	if r.cfg.InjectFault {
		r.injector, err = faultinject.New(r.cfg.Fault, r.budget, func() {
			r.logf("replica %s: resource exhausted, crashing", r.name)
			go r.exit(ExitCrashed)
		})
		if err != nil {
			return err
		}
		r.injector.Instrument(r.cfg.Telemetry)
	}

	// Durable recovery happens before the replica is reachable: replay the
	// local checkpoint + log, so the handshake below only needs the delta.
	r.state = &clockState{}
	r.clientIDs = cdr.NewInterner(1024)
	if r.cfg.StateDir != "" {
		store, res, derr := durable.Open(durable.Config{
			Dir:       filepath.Join(r.cfg.StateDir, r.name),
			Replica:   r.name,
			Faults:    r.cfg.DurableFaults,
			Telemetry: r.cfg.Telemetry,
			Logf:      r.cfg.Logf,
		})
		if derr != nil {
			return derr
		}
		r.store = store
		r.cfg.Telemetry.RecoveryStarted(r.name, int64(res.Snap.OpNumber)-int64(res.Replayed))
		r.state.merge(res.Snap) // before the store is attached: nothing to persist
		r.state.store = store
		r.cfg.Telemetry.LogReplayed(r.name, int64(res.Replayed), res.Truncated)
		r.logf("replica %s: durable recovery: checkpoint=%v damaged=%v replayed=%d truncated=%v op=%d counter=%d",
			r.name, res.CheckpointLoaded, res.CheckpointDamaged, res.Replayed, res.Truncated,
			res.Snap.OpNumber, res.Snap.Counter)
	}

	if r.member, err = gcs.Dial(r.cfg.HubAddr, r.name); err != nil {
		return err
	}

	var adaptive *ftmgr.AdaptiveThreshold
	if r.cfg.AdaptiveLeadTime > 0 {
		adaptive = ftmgr.NewAdaptiveThreshold(r.cfg.AdaptiveLeadTime)
	}
	r.mgr, err = ftmgr.NewManager(ftmgr.Config{
		ReplicaName:      r.name,
		Group:            r.cfg.Group(),
		Scheme:           r.cfg.Scheme,
		Monitor:          r.budget,
		LaunchThreshold:  r.cfg.LaunchThreshold,
		MigrateThreshold: r.cfg.MigrateThreshold,
		Adaptive:         adaptive,
		Member:           r.member,
		Telemetry:        r.cfg.Telemetry,
		OnFirstRequest: func() {
			if r.injector != nil {
				_ = r.injector.Activate()
			}
		},
		OnMigrate: func() {
			r.logf("replica %s: migrate threshold crossed, handing clients off", r.name)
			// T2 is crossed writing a reply, usually with that reply's
			// connection open, and the connection-closed hook rejuvenates once
			// the last one goes. But requests read in one piece are
			// dispatched concurrently: a client that sent two and closed can
			// have its close seen, below T2, before a reply is written, and
			// then nothing is left open.
			if _, srv := r.live(); srv != nil && srv.ActiveConnections() == 0 {
				go r.maybeRejuvenate()
			}
		},
	})
	if err != nil {
		return err
	}

	r.srv = orb.NewServer(
		orb.WithServerConnWrapper(r.mgr.WrapServerConn),
		orb.WithServerTelemetry(r.cfg.Telemetry),
		orb.WithConnClosedHook(func(active int) {
			if active == 0 {
				go r.maybeRejuvenate()
			}
		}),
	)
	objects := r.cfg.Objects
	if objects <= 0 {
		objects = 1
	}
	servant := r.servant()
	keys := make([][]byte, 0, objects)
	keys = append(keys, giop.MakeObjectKey(r.cfg.Service, ObjectName))
	for i := 1; i < objects; i++ {
		keys = append(keys, giop.MakeObjectKey(r.cfg.Service, fmt.Sprintf("%s-%d", ObjectName, i)))
	}
	for _, key := range keys {
		r.srv.Register(key, servant)
	}
	if err := r.srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	if err := r.srv.Start(); err != nil {
		return err
	}
	r.addr = r.srv.Addr()
	iors := make([]giop.IOR, 0, len(keys))
	for _, key := range keys {
		keyIOR, err := r.srv.IORFor(typeID, key)
		if err != nil {
			return err
		}
		iors = append(iors, keyIOR)
	}
	ior := iors[0]

	// Register with the Naming Service. Rebind keeps the original
	// registration order, and a crashed replica's stale binding stays in
	// place until this point — the source of the cached reactive scheme's
	// TRANSIENT exceptions.
	if r.cfg.NamesAddr != "" {
		nc := namesvc.NewClient(r.cfg.NamesAddr)
		nc.SetTelemetry(r.cfg.Telemetry)
		err := nc.Rebind(r.cfg.BindingName(r.name), ior)
		_ = nc.Close() // one connection per incarnation, not one held per replica
		if err != nil {
			return fmt.Errorf("naming registration: %w", err)
		}
	}

	if err := r.member.Join(r.cfg.Group()); err != nil {
		return err
	}
	// Announce every hosted object's IOR: the LOCATION_FORWARD scheme's
	// per-object bookkeeping cost scales with this list.
	if err := r.mgr.AnnounceSelf(r.srv.Addr(), iors); err != nil {
		return err
	}
	if r.store != nil {
		// Recovery handshake, VSR-style: having replayed the local log,
		// multicast the state it reached with a fresh nonce. Every member
		// merges it and answers privately with its own state, which deliver
		// merges (nonce-guarded against answers to an earlier incarnation).
		r.recoveryNonce = recoveryNonces.Add(1)
		q := ftmgr.RecoveryQuery{From: r.name, Nonce: r.recoveryNonce, Data: durable.EncodeSnapshot(r.state.snapshot(false))}
		if err := r.member.Multicast(r.cfg.Group(), ftmgr.EncodeRecoveryQuery(q)); err != nil {
			return err
		}
	}

	r.loopWG.Add(2)
	go func() {
		defer r.loopWG.Done()
		r.deliveryLoop()
	}()
	go func() {
		defer r.loopWG.Done()
		r.checkpointLoop()
	}()
	r.logf("replica %s: serving %s at %s (scheme %v)", r.name, r.cfg.Service, r.srv.Addr(), r.cfg.Scheme)
	return nil
}

func (r *Replica) cleanupPartial() {
	if r.srv != nil {
		_ = r.srv.Close()
	}
	if r.member != nil {
		_ = r.member.Close()
	}
	if r.injector != nil {
		r.injector.Stop()
	}
	if r.store != nil {
		r.store.Close()
	}
}

// recoveryNonces distinguishes recovery-handshake incarnations within one
// process (each restart queries with a fresh nonce).
var recoveryNonces atomic.Uint64

// Crash terminates the replica abruptly (process-crash semantics).
func (r *Replica) Crash() { r.exit(ExitCrashed) }

// Stop terminates the replica administratively.
func (r *Replica) Stop() { r.exit(ExitStopped) }

// maybeRejuvenate gracefully restarts the replica once migration has begun
// and the last connection that carried a request has drained — the quiescence
// condition the paper required before a faulty replica could be restarted
// safely. A connection nobody has spoken on (orb.ActiveConnections) does not
// hold it back.
func (r *Replica) maybeRejuvenate() {
	mgr, srv := r.live()
	if mgr != nil && mgr.Migrating() && srv.ActiveConnections() == 0 {
		r.logf("replica %s: quiescent after migration, rejuvenating", r.name)
		r.exit(ExitRejuvenated)
	}
}

func (r *Replica) exit(reason ExitReason) {
	r.exitOnce.Do(func() {
		r.exiting.Store(true)
		r.reason = reason
		if r.injector != nil {
			r.injector.Stop()
		}
		if r.srv != nil {
			r.srv.Crash()
		}
		if r.member != nil {
			_ = r.member.Close()
		}
		r.loopWG.Wait()
		if r.store != nil {
			// Orderly close: write the pending batch and sync so the log is
			// complete on disk. Genuine crash-tail loss is modeled
			// explicitly by the durable fault injector, keeping kill-all
			// recovery tests deterministic instead of racing the writer.
			r.store.Close()
		}
		if r.state != nil {
			r.state.detach()
		}
		r.liveMu.Lock()
		r.member, r.mgr, r.srv, r.store = nil, nil, nil, nil
		r.liveMu.Unlock()
		close(r.done)
	})
}

func (r *Replica) logf(format string, args ...interface{}) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// deliveryLoop pumps GCS events into the FT manager and runs state transfer:
// checkpoints and both halves of the recovery handshake.
func (r *Replica) deliveryLoop() {
	for d := range r.member.Deliveries() {
		if r.exiting.Load() {
			// The ORB goes down before the group connection does; a primary
			// query from a client that just lost it must not be answered
			// with this replica's own, dead, address.
			continue
		}
		r.deliver(d)
	}
}

// deliver handles one delivery on the delivery loop's goroutine. The payload
// is decoded once, by the FT manager, which hands back the message.
func (r *Replica) deliver(d gcs.Delivery) {
	msg := r.mgr.HandleDelivery(d)
	if d.Sender == r.name {
		return // its own checkpoint or query
	}
	switch v := msg.(type) {
	case ftmgr.Checkpoint:
		r.merge(v.Data)
	case ftmgr.RecoveryQuery:
		// A member that (re)started: its state moves this one forward if it is
		// ahead — in a whole-group disaster the first replica back may be
		// behind the later ones — and the answer moves it forward if not.
		if r.merge(v.Data) {
			r.fetched(v.From)
		}
		rs := ftmgr.RecoveryState{From: r.name, Nonce: v.Nonce, Data: durable.EncodeSnapshot(r.state.snapshot(false))}
		_ = r.member.Send(v.From, ftmgr.EncodeRecoveryState(rs))
	case ftmgr.RecoveryState:
		// The wrong nonce marks an answer to an earlier incarnation.
		if v.Nonce == r.recoveryNonce && r.merge(v.Data) {
			r.fetched(v.From)
		}
	}
}

// merge is the one way a peer's state enters this replica, whether it came
// in a checkpoint, a recovery query or an answer: data is applied forward-only
// and, on a durable replica it advanced, persisted. It reports whether the op
// number advanced.
func (r *Replica) merge(data []byte) bool {
	snap, err := durable.DecodeSnapshot(data)
	if err != nil || !r.state.merge(snap) {
		return false
	}
	if r.store != nil {
		r.cfg.Telemetry.CheckpointPersisted(r.name)
	}
	return true
}

// fetched records that the recovery handshake with from moved this replica
// forward.
func (r *Replica) fetched(from string) {
	op := r.state.OpNumber()
	r.cfg.Telemetry.StateFetched(r.name, int64(op))
	r.logf("replica %s: recovery fetched state from %s (op=%d)", r.name, from, op)
}

// checkpointLoop is warm-passive state transfer and durable checkpointing on
// one ticker. A tick takes one snapshot for both sinks: the group, if this
// replica is the primary, and the disk once the op log has grown past
// checkpointLogBytes (an incremental checkpoint, which truncates the log it
// covers).
func (r *Replica) checkpointLoop() {
	ticker := time.NewTicker(r.cfg.CheckpointEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			persist := r.store != nil && r.store.LogBytes() >= checkpointLogBytes
			primary := r.mgr.IsPrimary()
			if !persist && !primary {
				continue
			}
			snap := r.state.snapshot(persist)
			if persist {
				r.cfg.Telemetry.CheckpointPersisted(r.name)
			}
			if !primary {
				continue
			}
			cp := ftmgr.Checkpoint{From: r.name, Data: durable.EncodeSnapshot(snap)}
			if err := r.member.Multicast(r.cfg.Group(), ftmgr.EncodeCheckpoint(cp)); err != nil {
				return
			}
		case <-r.member.Done():
			return
		}
	}
}

// servant builds the time-of-day application object: the paper's test
// application ("a simple CORBA client ... requested the time-of-day ...
// from one of three warm-passively replicated CORBA servers").
func (r *Replica) servant() orb.Servant {
	return orb.ServantFunc(func(op string, args *cdr.Decoder, result *cdr.Encoder) error {
		switch op {
		case "time_of_day":
			r.requests.Add(1)
			// Optional at-most-once identity (client id + invocation seq).
			// Anonymous requests (no args) always execute; identified
			// retransmissions of an already-executed seq are answered from
			// the dedup table without re-executing. The id is interned so
			// the steady-state decode stays allocation-free.
			var client string
			var seq uint64
			if args != nil && args.Remaining() > 0 {
				c, err := args.ReadStringIntern(r.clientIDs)
				if err != nil {
					return &giop.SystemException{RepoID: giop.RepoBadOperation, Completed: giop.CompletedNo}
				}
				s, err := args.ReadULongLong()
				if err != nil {
					return &giop.SystemException{RepoID: giop.RepoBadOperation, Completed: giop.CompletedNo}
				}
				client, seq = c, s
			}
			count, dup := r.state.exec(client, seq)
			if dup {
				r.cfg.Telemetry.DupSuppressed()
			} else if r.store != nil {
				r.cfg.Telemetry.OpLogged()
			}
			result.WriteLongLong(time.Now().UnixNano())
			result.WriteULongLong(count)
			result.WriteString(r.name)
			return nil
		case "counter":
			result.WriteULongLong(r.state.Counter())
			return nil
		default:
			return &giop.SystemException{RepoID: giop.RepoBadOperation, Completed: giop.CompletedNo}
		}
	})
}

// clockState is the replicated application state: a monotonic invocation
// counter, the VSR-style op number and the at-most-once dedup table. Every
// snapshot carries all three; a durable replica also persists them via the
// attached store.
type clockState struct {
	mu       sync.Mutex
	counter  uint64
	opNumber uint64
	dedup    map[string]durable.DedupEntry
	store    *durable.Store // nil: in-memory only
}

// detach drops the store of an exited replica; the counters stay readable.
func (s *clockState) detach() {
	s.mu.Lock()
	s.store = nil
	s.mu.Unlock()
}

// exec runs one application operation under the at-most-once contract.
// client=="" is anonymous: always executes. An identified request executes
// only if seq advances past the client's dedup entry; otherwise the cached
// counter is returned (dup=true) and nothing is logged — a retransmission
// observed after the original already executed. Log appends happen inside
// the lock, so log order matches execution order (the store's
// checkpoint-truncation contract).
func (s *clockState) exec(client string, seq uint64) (count uint64, dup bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if client != "" {
		if e, ok := s.dedup[client]; ok && seq <= e.Seq {
			return e.Counter, true
		}
	}
	s.counter++
	s.opNumber++
	if client != "" {
		if s.dedup == nil {
			s.dedup = make(map[string]durable.DedupEntry)
		}
		s.dedup[client] = durable.DedupEntry{Client: client, Seq: seq, Counter: s.counter}
	}
	if s.store != nil {
		s.store.Append(durable.Op{
			OpNumber:  s.opNumber,
			Counter:   s.counter,
			Client:    client,
			ClientSeq: seq,
		})
	}
	return s.counter, false
}

// Counter returns the current state value.
func (s *clockState) Counter() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counter
}

// OpNumber returns the last executed (or merged) op number.
func (s *clockState) OpNumber() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opNumber
}

// snapshot renders the current state as a snapshot (dedup entries in
// canonical client order). With persist set, a durable state also queues it
// as the store's next checkpoint, which then owns its Dedup: snapshot and
// queueing share one critical section with exec's append, so no op the
// snapshot does not cover can be appended in between and then truncated with
// the log.
func (s *clockState) snapshot(persist bool) durable.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(persist)
}

func (s *clockState) snapshotLocked(persist bool) durable.Snapshot {
	snap := durable.Snapshot{OpNumber: s.opNumber, Counter: s.counter}
	if len(s.dedup) > 0 {
		snap.Dedup = make([]durable.DedupEntry, 0, len(s.dedup))
		for _, e := range s.dedup {
			snap.Dedup = append(snap.Dedup, e)
		}
		sort.Slice(snap.Dedup, func(i, j int) bool { return snap.Dedup[i].Client < snap.Dedup[j].Client })
	}
	if persist && s.store != nil {
		s.store.Checkpoint(snap)
	}
	return snap
}

// merge applies a snapshot forward-only: the counter and each client's dedup
// row move only up, so checkpoints, queries and answers apply safely in any
// order and any number of times. It reports whether the op number advanced,
// and then queues the merged state as a durable checkpoint.
func (s *clockState) merge(snap durable.Snapshot) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap.Counter > s.counter {
		s.counter = snap.Counter
	}
	for _, e := range snap.Dedup {
		if cur, ok := s.dedup[e.Client]; !ok || e.Seq > cur.Seq {
			if s.dedup == nil {
				s.dedup = make(map[string]durable.DedupEntry, len(snap.Dedup))
			}
			s.dedup[e.Client] = e
		}
	}
	if snap.OpNumber <= s.opNumber {
		return false
	}
	s.opNumber = snap.OpNumber
	if s.store != nil {
		s.snapshotLocked(true)
	}
	return true
}
