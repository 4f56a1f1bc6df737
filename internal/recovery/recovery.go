// Package recovery implements the MEAD Recovery Manager (Section 3.3): the
// component "responsible for launching new server replicas that restore the
// application's resilience after a server replica or a node crashes". It
// subscribes to the replicated server's group to receive membership-change
// notifications and relaunches missing replicas through a Factory; it also
// listens for the Proactive Fault-Tolerance Manager's fault notifications
// and pre-arms a faster relaunch for replicas that are expected to fail.
//
// As in the paper, the Recovery Manager is currently a single point of
// failure ("future implementations of our framework will allow us to extend
// our proactive mechanisms to the Recovery Manager as well").
package recovery

import (
	"errors"
	"sync"
	"time"

	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/telemetry"
)

// Factory launches a fresh instance of the named replica. The experiment
// harness supplies one that builds a new replica node in-process; the
// standalone binaries supply one that forks a process.
type Factory interface {
	Launch(name string) error
}

// FactoryFunc adapts a function to the Factory interface.
type FactoryFunc func(name string) error

// Launch calls f.
func (f FactoryFunc) Launch(name string) error { return f(name) }

// Default restart delays. A crash-detected restart models process start-up
// cost; a forewarned restart is faster because the T1 notification let the
// Recovery Manager prepare ("these proactive fault-notification messages
// can also trigger the Recovery Manager to launch a new replica to replace
// the one that is expected to fail").
const (
	DefaultRestartDelay   = 150 * time.Millisecond
	DefaultProactiveDelay = 20 * time.Millisecond
)

// Config parameterizes a Recovery Manager.
type Config struct {
	// Member is the manager's GCS connection; the manager joins Group on
	// Start.
	Member *gcs.Member
	// Group is the replicated server's group.
	Group string
	// ReplicaNames is the expected replica set (the desired degree of
	// replication is its length).
	ReplicaNames []string
	// RestartDelay applies to crash-detected relaunches.
	RestartDelay time.Duration
	// ProactiveDelay applies when a fault notification forewarned us.
	ProactiveDelay time.Duration
	// Factory launches replacements.
	Factory Factory
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...interface{})
	// Telemetry, when set, records replica departures as recovery-trace
	// events and counts relaunches.
	Telemetry *telemetry.Telemetry
}

// Manager is the MEAD Recovery Manager.
type Manager struct {
	cfg Config

	mu         sync.Mutex
	alive      map[string]bool
	pending    map[string]bool // relaunch scheduled
	forewarned map[string]bool // fault notification received
	launches   int
	failures   int
	started    bool
	stopped    bool

	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// New validates cfg and returns an unstarted Manager.
func New(cfg Config) (*Manager, error) {
	if cfg.Member == nil {
		return nil, errors.New("recovery: nil GCS member")
	}
	if cfg.Factory == nil {
		return nil, errors.New("recovery: nil factory")
	}
	if len(cfg.ReplicaNames) == 0 {
		return nil, errors.New("recovery: empty replica set")
	}
	if cfg.RestartDelay == 0 {
		cfg.RestartDelay = DefaultRestartDelay
	}
	if cfg.ProactiveDelay == 0 {
		cfg.ProactiveDelay = DefaultProactiveDelay
	}
	return &Manager{
		cfg:        cfg,
		alive:      make(map[string]bool),
		pending:    make(map[string]bool),
		forewarned: make(map[string]bool),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}, nil
}

// Start joins the group and begins supervising.
func (m *Manager) Start() error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return errors.New("recovery: already started")
	}
	m.started = true
	m.mu.Unlock()
	if err := m.cfg.Member.Join(m.cfg.Group); err != nil {
		return err
	}
	go m.run()
	return nil
}

// Stop halts supervision (pending relaunch timers are cancelled).
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	close(m.stop)
	_ = m.cfg.Member.Close()
	<-m.done
	m.wg.Wait()
}

// Launches returns how many replacements the manager has launched.
func (m *Manager) Launches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.launches
}

// Failures returns how many replica departures the manager has observed —
// the experiment's server-side failure count.
func (m *Manager) Failures() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failures
}

func (m *Manager) logf(format string, args ...interface{}) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

func (m *Manager) run() {
	defer close(m.done)
	for {
		select {
		case d, ok := <-m.cfg.Member.Deliveries():
			if !ok {
				return
			}
			m.handle(d)
		case <-m.stop:
			return
		}
	}
}

func (m *Manager) handle(d gcs.Delivery) {
	switch d.Kind {
	case gcs.DeliverView:
		if d.View.Group == m.cfg.Group {
			m.reconcile(d.View)
		}
	case gcs.DeliverData:
		// Checkpoints, listings and recovery queries pass by undecoded.
		if n, ok := ftmgr.DecodeNotice(d.Payload); ok {
			m.onNotice(n)
		}
	}
}

// onNotice records the forewarning so the eventual relaunch is fast — the
// paper's T1 "launch a new replica" step, adapted to in-place restart (the
// GCS rejects duplicate member names, so the replacement is pre-armed
// rather than pre-started; the observable effect, a shorter recovery gap,
// is the same).
func (m *Manager) onNotice(n ftmgr.Notice) {
	if !m.isManaged(n.Replica) {
		return
	}
	m.mu.Lock()
	m.forewarned[n.Replica] = true
	m.mu.Unlock()
	m.logf("recovery: forewarned about %s (%s at %.0f%%)", n.Replica, n.Resource, 100*n.Usage)
}

func (m *Manager) isManaged(name string) bool {
	for _, n := range m.cfg.ReplicaNames {
		if n == name {
			return true
		}
	}
	return false
}

// reconcile compares the view against the expected replica set and
// schedules relaunches for the missing.
func (m *Manager) reconcile(v gcs.View) {
	inView := make(map[string]bool, len(v.Members))
	for _, name := range v.Members {
		inView[name] = true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range m.cfg.ReplicaNames {
		switch {
		case inView[name]:
			if !m.alive[name] {
				m.alive[name] = true
				m.pending[name] = false
			}
		case m.alive[name]:
			// A previously-alive replica left: crash or rejuvenation.
			m.alive[name] = false
			m.failures++
			m.cfg.Telemetry.ReplicaKilled(name)
			m.scheduleLocked(name)
		case !m.pending[name] && m.anyAliveLocked(inView):
			// Replica missing from a view we participate in and not yet
			// scheduled (e.g. it died before we ever saw it).
			m.scheduleLocked(name)
		}
	}
}

// anyAliveLocked guards bootstrap: we only start relaunching once the group
// has ever had a live replica, so that a manager started before the initial
// replicas does not race their first launch.
func (m *Manager) anyAliveLocked(inView map[string]bool) bool {
	for _, name := range m.cfg.ReplicaNames {
		if m.alive[name] || inView[name] {
			return true
		}
	}
	return false
}

func (m *Manager) scheduleLocked(name string) {
	if m.pending[name] || m.stopped {
		return
	}
	m.pending[name] = true
	delay := m.cfg.RestartDelay
	if m.forewarned[name] {
		delay = m.cfg.ProactiveDelay
		m.forewarned[name] = false
	}
	m.logf("recovery: relaunching %s in %v", name, delay)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-m.stop:
			return
		}
		if err := m.cfg.Factory.Launch(name); err != nil {
			m.logf("recovery: relaunch of %s failed: %v", name, err)
			m.mu.Lock()
			m.pending[name] = false
			m.mu.Unlock()
			return
		}
		m.mu.Lock()
		m.launches++
		m.mu.Unlock()
		m.cfg.Telemetry.Relaunched(name)
	}()
}
