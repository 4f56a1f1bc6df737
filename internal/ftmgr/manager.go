package ftmgr

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"

	"mead/internal/cdr"
	"mead/internal/gcs"
	"mead/internal/giop"
	"mead/internal/interceptor"
	"mead/internal/telemetry"
)

// Default thresholds from Section 3.2: "when the replica has used 80% of
// its allocated resources, the Proactive Fault-Tolerance Manager at that
// replica requests the Recovery Manager to launch a new replica. If the
// replica's resource usage exceeds our second threshold, e.g., when 90% of
// the allocated resources have been consumed, [it] can initiate the
// migration of all its current clients to the next non-faulty server
// replica in the group."
const (
	DefaultLaunchThreshold  = 0.80
	DefaultMigrateThreshold = 0.90
)

// Monitor is the resource-usage source the manager polls (event-driven,
// from the write path) — satisfied by *resource.Budget.
type Monitor interface {
	Name() string
	Fraction() float64
}

// Config parameterizes a server-side Manager.
type Config struct {
	// ReplicaName is this replica's GCS member name.
	ReplicaName string
	// Group is the server-specific GCS group.
	Group string
	// Scheme selects the proactive hand-off mechanism.
	Scheme Scheme
	// Monitor reports resource usage.
	Monitor Monitor
	// LaunchThreshold (T1) triggers the proactive fault notification.
	LaunchThreshold float64
	// MigrateThreshold (T2) triggers client migration.
	MigrateThreshold float64
	// Member is the replica's connection to the GCS; used to multicast
	// notices and answer primary queries.
	Member *gcs.Member
	// OnFirstRequest fires when the first client request arrives (the
	// fault-injection onset in the paper's experiments).
	OnFirstRequest func()
	// OnMigrate fires once when the manager starts migrating clients.
	OnMigrate func()
	// Adaptive, if set, derives the migration threshold from the observed
	// leak trend (the paper's future-work extension) instead of the
	// preset MigrateThreshold, which remains the fallback.
	Adaptive *AdaptiveThreshold
	// Telemetry, when set, records threshold crossings as recovery-trace
	// events (with the usage percentage as the event value).
	Telemetry *telemetry.Telemetry
}

// Manager is the server-side Proactive Fault-Tolerance Manager instance
// embedded in one replica's interceptors.
type Manager struct {
	cfg Config

	mu           sync.Mutex
	view         gcs.View
	replicas     map[string]Announce            // known replica endpoints by name
	iorsByHash   map[uint16]map[string]giop.IOR // objectKey hash16 -> replica name -> IOR
	migrating    bool
	noticeSent   bool
	firstRequest bool
	migrations   int // replies rewritten / piggybacked so far
	// held keeps the primary queries this replica could not answer, the latest
	// per asker, until the next view: a client that lost the primary asks before
	// the group agrees it is gone, and whoever that view makes primary answers.
	held map[string]QueryPrimary
	// unsynced holds the members that joined since a SyncList last answered
	// the current view; the coordinator re-sends the listing while it is not
	// empty. It follows the delivery order, so the members that saw those
	// joins agree on it (see noteJoinersLocked and applySync).
	unsynced map[string]bool
}

// Errors.
var (
	errNoMember = errors.New("ftmgr: manager requires a GCS member")
)

// NewManager validates cfg and returns a Manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Member == nil {
		return nil, errNoMember
	}
	if cfg.Monitor == nil {
		return nil, errors.New("ftmgr: manager requires a resource monitor")
	}
	if cfg.LaunchThreshold == 0 {
		cfg.LaunchThreshold = DefaultLaunchThreshold
	}
	if cfg.MigrateThreshold == 0 {
		cfg.MigrateThreshold = DefaultMigrateThreshold
	}
	if cfg.LaunchThreshold > cfg.MigrateThreshold {
		return nil, fmt.Errorf("ftmgr: launch threshold %.2f above migrate threshold %.2f",
			cfg.LaunchThreshold, cfg.MigrateThreshold)
	}
	return &Manager{
		cfg:        cfg,
		replicas:   make(map[string]Announce),
		iorsByHash: make(map[uint16]map[string]giop.IOR),
		held:       make(map[string]QueryPrimary),
		unsynced:   make(map[string]bool),
	}, nil
}

// AnnounceSelf broadcasts this replica's endpoint and IORs to the group.
func (m *Manager) AnnounceSelf(addr string, iors []giop.IOR) error {
	a := Announce{Name: m.cfg.ReplicaName, Addr: addr, IORs: iors}
	m.learn(a)
	return m.cfg.Member.Multicast(m.cfg.Group, EncodeAnnounce(a))
}

// learn records a replica's endpoint and indexes its IORs by object-key
// hash (the paper's 16-bit-hash lookup optimization).
func (m *Manager) learn(a Announce) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.learnLocked(a)
}

func (m *Manager) learnLocked(a Announce) {
	m.replicas[a.Name] = a
	for _, ior := range a.IORs {
		prof, err := ior.IIOP()
		if err != nil {
			continue
		}
		h := giop.Hash16(prof.ObjectKey)
		byName := m.iorsByHash[h]
		if byName == nil {
			byName = make(map[string]giop.IOR)
			m.iorsByHash[h] = byName
		}
		byName[a.Name] = ior
	}
}

// HandleDelivery processes one GCS event; the replica's event loop calls it
// for every delivery (the paper folds this into the intercepted select()).
// It returns the message a data or private delivery decoded to (nil for a
// view, or a payload that is not an FT-manager message), so the caller acts
// on the rest of it without decoding the payload again.
func (m *Manager) HandleDelivery(d gcs.Delivery) interface{} {
	switch d.Kind {
	case gcs.DeliverView:
		if d.View.Group != m.cfg.Group {
			return nil
		}
		m.mu.Lock()
		prev := m.view.Members
		m.view = d.View
		// Purge endpoint entries of departed members: a relaunched
		// replica re-announces its (new) endpoint after rejoining, and
		// forwarding clients to a dead incarnation's address in the
		// meantime would defeat the hand-off.
		inView := make(map[string]bool, len(d.View.Members))
		for _, member := range d.View.Members {
			inView[member] = true
		}
		for name := range m.replicas {
			if !inView[name] {
				delete(m.replicas, name)
				for _, byName := range m.iorsByHash {
					delete(byName, name)
				}
			}
		}
		m.noteJoinersLocked(prev, inView)
		isCoordinator := m.primaryNameLocked() == m.cfg.ReplicaName
		list := make([]Announce, 0, len(m.replicas))
		for _, member := range d.View.Members {
			if a, ok := m.replicas[member]; ok {
				list = append(list, a)
			}
		}
		// Every view settles the held queries: the replica it makes primary
		// answers them and the others let go.
		held := m.held
		m.held = make(map[string]QueryPrimary)
		self, known := m.replicas[m.cfg.ReplicaName]
		needSync := len(m.unsynced) > 0
		m.mu.Unlock()
		if isCoordinator && known {
			for _, q := range held {
				m.sendPrimaryIs(q, self)
			}
		}
		// "Whenever group-membership changes occur ... the first replica
		// listed in the Spread group-membership message sends a message
		// that synchronizes the listing of active servers across the
		// group." Only while a member that joined has not been answered: a
		// view that only removes members tells every member what it prunes.
		if isCoordinator && needSync && len(list) > 0 {
			_ = m.cfg.Member.Multicast(m.cfg.Group, EncodeSyncList(SyncList{View: d.View.ID, Replicas: list}))
		}
		return nil
	case gcs.DeliverData, gcs.DeliverPrivate:
		msg, err := DecodeMessage(d.Payload)
		if err != nil {
			return nil
		}
		if d.Kind == gcs.DeliverPrivate {
			return msg // recovery answers: the caller's to act on
		}
		switch v := msg.(type) {
		case Announce:
			m.learn(v)
		case SyncList:
			m.applySync(v, d.Sender)
		case QueryPrimary:
			m.answerPrimaryQuery(v)
		}
		return msg
	}
	return nil
}

// noteJoinersLocked updates unsynced for a view whose previous view was prev.
// A member absent from prev joined since; one that left needs nothing. On its
// own first view a manager counts no one, itself included: it cannot tell
// which of the members it finds still wait for the listing, and the members
// that saw it join count it. So the first replica of a group owes no sync,
// and a joiner, which knows only itself, sends no list of one.
func (m *Manager) noteJoinersLocked(prev []string, inView map[string]bool) {
	for name := range m.unsynced {
		if !inView[name] {
			delete(m.unsynced, name)
		}
	}
	if len(prev) == 0 {
		return
	}
	for name := range inView {
		if !slices.Contains(prev, name) {
			m.unsynced[name] = true
		}
	}
}

// applySync learns a SyncList's replicas that are still in the view. It marks
// the listing synchronized only if the list answers the current view and its
// sender is not one of the unsynced joiners: a joiner knows only itself and
// those who joined after it, so when a later member joins before it has been
// answered it takes itself for the coordinator and multicasts that partial
// list. A list built for an older view may predate a join since.
func (m *Manager) applySync(s SyncList, sender string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.View == m.view.ID && !m.unsynced[sender] {
		clear(m.unsynced)
	}
	for _, a := range s.Replicas {
		if slices.Contains(m.view.Members, a.Name) {
			m.learnLocked(a)
		}
	}
}

// answerPrimaryQuery responds if this replica is the current primary, and
// otherwise keeps the query for the next view (see Manager.held).
func (m *Manager) answerPrimaryQuery(q QueryPrimary) {
	m.mu.Lock()
	isPrimary := m.primaryNameLocked() == m.cfg.ReplicaName
	self, known := m.replicas[m.cfg.ReplicaName]
	if !isPrimary || !known {
		m.held[q.ReplyTo] = q
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	m.sendPrimaryIs(q, self)
}

func (m *Manager) sendPrimaryIs(q QueryPrimary, self Announce) {
	_ = m.cfg.Member.Send(q.ReplyTo, EncodePrimaryIs(PrimaryIs{
		Name: self.Name, Addr: self.Addr, IORs: self.IORs,
	}))
}

// View returns the current group view.
func (m *Manager) View() gcs.View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view
}

// primaryNameLocked returns the first member of the current view that is a
// known (announced) replica. The Recovery Manager subscribes to the same
// group "to receive membership-change notifications", so raw view order may
// start with a non-replica member; primaries are chosen among replicas.
func (m *Manager) primaryNameLocked() string {
	for _, name := range m.view.Members {
		if _, ok := m.replicas[name]; ok {
			return name
		}
	}
	return ""
}

// IsPrimary reports whether this replica is the first replica in the
// current view.
func (m *Manager) IsPrimary() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.primaryNameLocked() == m.cfg.ReplicaName
}

// PrimaryName returns the current primary replica's name ("" if unknown).
func (m *Manager) PrimaryName() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.primaryNameLocked()
}

// Replicas returns the known replicas in current-view order.
func (m *Manager) Replicas() []Announce {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Announce, 0, len(m.view.Members))
	for _, name := range m.view.Members {
		if a, ok := m.replicas[name]; ok {
			out = append(out, a)
		}
	}
	return out
}

// NextReplica returns the next non-faulty replica after this one in view
// order — the migration target.
func (m *Manager) NextReplica() (Announce, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextReplicaLocked()
}

func (m *Manager) nextReplicaLocked() (Announce, bool) {
	members := m.view.Members
	n := len(members)
	if n == 0 {
		return Announce{}, false
	}
	selfIdx := -1
	for i, name := range members {
		if name == m.cfg.ReplicaName {
			selfIdx = i
			break
		}
	}
	for off := 1; off <= n; off++ {
		candidate := members[(selfIdx+off+n)%n]
		if candidate == m.cfg.ReplicaName {
			continue
		}
		if a, ok := m.replicas[candidate]; ok {
			return a, true
		}
	}
	return Announce{}, false
}

// forwardIORFor finds the next replica's IOR for the object whose key has
// the 16-bit hash keyHash.
func (m *Manager) forwardIORFor(keyHash uint16) (giop.IOR, string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next, ok := m.nextReplicaLocked()
	if !ok {
		return giop.IOR{}, "", false
	}
	ior, ok := m.iorsByHash[keyHash][next.Name]
	if !ok {
		return giop.IOR{}, "", false
	}
	return ior, next.Addr, true
}

// Migrating reports whether the migrate threshold has been crossed.
func (m *Manager) Migrating() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migrating
}

// Migrations returns how many replies have carried a hand-off so far.
func (m *Manager) Migrations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migrations
}

// handoffLocked reads what one reply on connection st owes the client:
// whether clients are being migrated (T2 crossed) and, between the two
// thresholds on a MEAD connection, the replica a NOTICE on this reply should
// name — once per connection, and again whenever a view change moves the
// target off the address it was last told. st.noticed is guarded by m.mu for
// that reason. Callers hold m.mu.
func (m *Manager) handoffLocked(st *connState) (migrate bool, warm *Announce) {
	if st == nil || !m.noticeSent || m.migrating || m.cfg.Scheme != MeadMessage {
		return m.migrating, nil
	}
	if next, ok := m.nextReplicaLocked(); ok && next.Addr != st.noticed {
		st.noticed = next.Addr
		target := next // the copy escapes, on this branch only
		warm = &target
	}
	return false, warm
}

// checkThresholds runs the event-driven two-step threshold scheme. It is
// called from the interceptor's write path ("proactive recovery needs to be
// triggered only when there are active client connections at the server")
// with the connection whose reply is passing, never from a monitoring thread,
// which the paper rejected ("multithreading introduced a great deal of
// overhead ... and involved continuous periodic checking of resources");
// PollThresholds passes nil.
func (m *Manager) checkThresholds(st *connState) (migrate bool, warm *Announce) {
	usage := m.cfg.Monitor.Fraction()
	migrateAt := m.cfg.MigrateThreshold
	launchAt := m.cfg.LaunchThreshold
	if m.cfg.Adaptive != nil {
		m.cfg.Adaptive.Observe(usage)
		migrateAt = m.cfg.Adaptive.Threshold(migrateAt)
		if launchAt > migrateAt {
			launchAt = 0.75 * migrateAt
		}
	}
	var (
		sendNotice  bool
		fireMigrate bool
	)
	m.mu.Lock()
	if usage >= launchAt && !m.noticeSent {
		m.noticeSent = true
		sendNotice = true
	}
	if usage >= migrateAt && !m.migrating {
		m.migrating = true
		fireMigrate = true
	}
	migrate, warm = m.handoffLocked(st)
	m.mu.Unlock()

	if sendNotice || fireMigrate {
		m.cfg.Telemetry.ThresholdCrossed(m.cfg.ReplicaName, int64(usage*100))
	}

	if sendNotice {
		_ = m.cfg.Member.Multicast(m.cfg.Group, EncodeNotice(Notice{
			Replica:  m.cfg.ReplicaName,
			Resource: m.cfg.Monitor.Name(),
			Usage:    usage,
		}))
	}
	if fireMigrate && m.cfg.OnMigrate != nil {
		m.cfg.OnMigrate()
	}
	return migrate, warm
}

// PollThresholds runs one threshold check outside any connection's write
// path and reports whether the replica is migrating. Only the ftmgr tests and
// the bench harness's ftmgr.poll_thresholds_ns rung call it: the replica
// checks thresholds on the write path alone.
func (m *Manager) PollThresholds() bool {
	if !m.cfg.Scheme.Proactive() {
		return false
	}
	migrate, _ := m.checkThresholds(nil)
	return migrate
}

// noteRequest handles read-side bookkeeping shared by all schemes.
func (m *Manager) noteRequest() {
	m.mu.Lock()
	first := !m.firstRequest
	m.firstRequest = true
	m.mu.Unlock()
	if first && m.cfg.OnFirstRequest != nil {
		m.cfg.OnFirstRequest()
	}
}

// maxTrackedRequests bounds connState.outstanding: a client that pipelines
// deeper than this gets its surplus requests answered normally instead of
// forwarded, and retries the migration on its next invocation.
const maxTrackedRequests = 1024

// connState is the per-connection request tracking the LOCATION_FORWARD
// scheme needs ("we need to parse incoming GIOP Request messages to extract
// the request id field so that we can generate corresponding
// LOCATION_FORWARD Reply messages that contain the correct request id and
// object key"). A pooled client keeps several requests in flight, so the
// object (as the 16-bit hash of its key, which is what the IOR table is
// indexed by) is remembered per request id from the Request until its Reply
// passes. The read hook and the write hook run on different goroutines.
type connState struct {
	mu          sync.Mutex
	outstanding []trackedRequest // a handful at most: scanned, not indexed

	// noticed is the address the last MEAD NOTICE on this connection named;
	// guarded by Manager.mu (see handoffLocked).
	noticed string
}

type trackedRequest struct {
	id      uint32
	keyHash uint16
}

func (st *connState) note(id uint32, keyHash uint16) {
	st.mu.Lock()
	if len(st.outstanding) < maxTrackedRequests {
		st.outstanding = append(st.outstanding, trackedRequest{id, keyHash})
	}
	st.mu.Unlock()
}

// take forgets request id and reports what was noted of it.
func (st *connState) take(id uint32) (trackedRequest, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, r := range st.outstanding {
		if r.id == id {
			last := len(st.outstanding) - 1
			st.outstanding[i] = st.outstanding[last]
			st.outstanding = st.outstanding[:last]
			return r, true
		}
	}
	return trackedRequest{}, false
}

// WrapServerConn interposes the scheme's server-side interceptor on an
// accepted connection; pass it to orb.WithServerConnWrapper.
func (m *Manager) WrapServerConn(conn net.Conn) net.Conn {
	st := &connState{}
	hooks := interceptor.Hooks{
		OnReadFrame: func(c *interceptor.Conn, f giop.Frame) ([]byte, error) {
			// Anything but a Request — including types GIOP does not define,
			// which the ORB itself rejects — passes through unobserved.
			if f.Kind != giop.FrameGIOP || f.Header.Type != giop.MsgRequest {
				return f.Raw, nil
			}
			m.noteRequest()
			if m.cfg.Scheme == LocationForward {
				// Full request parsing: the dominant cost of this scheme (90%
				// RTT overhead in the paper). The decoded header borrows the
				// frame buffer; only the key's hash outlives this hook call.
				hdr, d, err := giop.DecodeRequest(f.Header.Order, f.Body())
				if err == nil {
					if hdr.ResponseExpected {
						st.note(hdr.RequestID, giop.Hash16(hdr.ObjectKey))
					}
					d.Release()
				}
			}
			return f.Raw, nil
		},
		OnWriteFrame: func(c *interceptor.Conn, f giop.Frame) ([]byte, error) {
			if f.Kind != giop.FrameGIOP || f.Header.Type != giop.MsgReply {
				return f.Raw, nil
			}
			// Only the proactive schemes run the threshold machinery;
			// the reactive baselines and the NEEDS_ADDRESSING scheme
			// (abrupt failures, no advance warning) serve replies as-is.
			if !m.cfg.Scheme.Proactive() {
				return f.Raw, nil
			}
			// The Reply names the request it answers; with several in flight
			// that is the only sound source for the id of a fabricated
			// LOCATION_FORWARD and for which object it must forward.
			var (
				req     trackedRequest
				tracked bool
			)
			if m.cfg.Scheme == LocationForward {
				if id, err := giop.ReplyIDOf(f.Header.Order, f.Body()); err == nil {
					req, tracked = st.take(id)
				}
			}
			migrate, warm := m.checkThresholds(st)
			if warm != nil {
				return prepend(giop.EncodeMeadNotice(warm.Addr, firstIOR(*warm)), f.Raw), nil
			}
			if !migrate {
				return f.Raw, nil
			}
			switch m.cfg.Scheme {
			case LocationForward:
				if !tracked {
					return f.Raw, nil
				}
				return m.rewriteLocationForward(f, req)
			case MeadMessage:
				return m.piggybackMead(f)
			default:
				return f.Raw, nil
			}
		},
	}
	return interceptor.New(conn, hooks)
}

// rewriteLocationForward suppresses the replica's normal reply to req and
// fabricates a LOCATION_FORWARD reply holding the next replica's IOR for the
// object the request addressed (Section 4.1).
func (m *Manager) rewriteLocationForward(f giop.Frame, req trackedRequest) ([]byte, error) {
	ior, _, ok := m.forwardIORFor(req.keyHash)
	if !ok {
		return f.Raw, nil // no migration target known; serve normally
	}
	m.mu.Lock()
	m.migrations++
	m.mu.Unlock()
	fwd := giop.EncodeReply(f.Header.Order,
		giop.ReplyHeader{RequestID: req.id, Status: giop.ReplyLocationForward},
		func(e *cdr.Encoder) { giop.EncodeIOR(e, ior) })
	return fwd, nil
}

// piggybackMead prepends a MEAD fail-over frame to the regular reply
// (Section 4.3). The client interceptor consumes the MEAD frame, redirects
// the connection, and passes the reply to the application — no
// retransmission.
func (m *Manager) piggybackMead(f giop.Frame) ([]byte, error) {
	next, ok := m.NextReplica()
	if !ok {
		return f.Raw, nil
	}
	m.mu.Lock()
	m.migrations++
	m.mu.Unlock()
	return prepend(giop.EncodeMeadFailover(next.Addr, firstIOR(next)), f.Raw), nil
}

// firstIOR is the object reference a MEAD frame carries beside a replica's
// address.
func firstIOR(a Announce) giop.IOR {
	if len(a.IORs) > 0 {
		return a.IORs[0]
	}
	return giop.IOR{}
}

// prepend returns mead followed by reply in one buffer, so that both leave
// in the same transport write.
func prepend(mead, reply []byte) []byte {
	out := make([]byte, 0, len(mead)+len(reply))
	out = append(out, mead...)
	return append(out, reply...)
}
