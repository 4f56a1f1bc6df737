package replica_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/durable"
	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/replica"
)

// stateTap sits on the hub's side of every member connection and counts, per
// sending member, the recovery queries it multicasts and the recovery answers
// it sends privately to anyone but the observer.
type stateTap struct {
	mu      sync.Mutex
	queries map[string]int
	answers map[string]int
}

// take returns the counts since the last take and resets them.
func (tp *stateTap) take() (queries, answers map[string]int) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	queries, answers = tp.queries, tp.answers
	tp.queries, tp.answers = map[string]int{}, map[string]int{}
	return queries, answers
}

func (tp *stateTap) wrap(c net.Conn) net.Conn { return &tapConn{Conn: c, tap: tp} }

// tapConn parses the member-to-hub frames (docs/PROTOCOL.md §4) the hub reads.
// One hub goroutine reads each connection, so buf and name need no lock.
type tapConn struct {
	net.Conn
	tap  *stateTap
	buf  []byte
	name string // from the HELLO
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.buf = append(c.buf, p[:n]...)
	for len(c.buf) >= 4 {
		size := int(binary.BigEndian.Uint32(c.buf))
		if len(c.buf) < 4+size {
			break
		}
		c.note(c.buf[4 : 4+size])
		c.buf = c.buf[4+size:]
	}
	return n, err
}

func (c *tapConn) note(body []byte) {
	d := cdr.NewDecoder(body, cdr.BigEndian)
	op, _ := d.ReadOctet()
	name, _ := d.ReadString()
	if op == 1 { // HELLO
		c.name = name
		return
	}
	payload, err := d.ReadOctets()
	if err != nil || len(payload) == 0 || c.name == "observer" {
		return
	}
	msg, _ := ftmgr.DecodeMessage(payload)
	c.tap.mu.Lock()
	defer c.tap.mu.Unlock()
	switch msg.(type) {
	case ftmgr.RecoveryQuery:
		if op == 4 { // MCAST
			c.tap.queries[c.name]++
		}
	case ftmgr.RecoveryState:
		if op == 5 && name != "observer" { // SEND
			c.tap.answers[c.name]++
		}
	}
}

// durableConfig is a durable service on hub whose primary sends no
// checkpoints during a test: only the recovery handshake moves state.
func durableConfig(t *testing.T, hub *gcs.Hub) replica.ServiceConfig {
	return replica.ServiceConfig{
		Service:         "timeofday",
		HubAddr:         hub.Addr(),
		Scheme:          ftmgr.ReactiveNoCache,
		CheckpointEvery: time.Hour,
		StateDir:        t.TempDir(),
	}
}

// launchJoined starts a replica and waits until the hub has sequenced its
// join, so replicas launched one after the other join in that order.
func launchJoined(t *testing.T, hub *gcs.Hub, cfg replica.ServiceConfig, name string) *replica.Replica {
	t.Helper()
	r, err := replica.New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	waitFor(t, name+" to join", func() bool { return slices.Contains(hub.Members(cfg.Group()), name) })
	return r
}

// TestJoinCostsOneAnswerPerMember is the state-transfer count guard of `make
// perf-guards`: over a real hub, the k-th durable replica to join sends one
// recovery query and is answered by each of the k-1 members, and no member
// sends a query because the view changed. An observer member marks the end of
// each join: once every replica has answered a query the observer multicast
// after the joiner's own, every replica has handled the join's view and the
// joiner's query. At the parent, where each member re-multicast its query on
// every view that grew, the joins k = 1..4 cost 2, 3, 4, 5 queries and 0, 3,
// 8, 15 answers.
func TestJoinCostsOneAnswerPerMember(t *testing.T) {
	tap := &stateTap{queries: map[string]int{}, answers: map[string]int{}}
	hub := gcs.NewHub(gcs.WithConnWrapper(tap.wrap))
	if err := hub.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	cfg := durableConfig(t, hub)
	obs, err := gcs.Dial(hub.Addr(), "observer")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = obs.Close() })
	if err := obs.Join(cfg.Group()); err != nil {
		t.Fatal(err)
	}
	// await reads the observer's deliveries until one satisfies done.
	await := func(what string, done func(gcs.Delivery) bool) {
		t.Helper()
		for {
			select {
			case d := <-obs.Deliveries():
				if done(d) {
					return
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	await("the observer's view", func(d gcs.Delivery) bool { return d.Kind == gcs.DeliverView })

	var members []string
	for k := 1; k <= 4; k++ {
		joiner := fmt.Sprintf("r%d", k)
		members = append(members, joiner)
		launchJoined(t, hub, cfg, joiner)
		await(joiner+"'s query", func(d gcs.Delivery) bool {
			msg, _ := ftmgr.DecodeMessage(d.Payload)
			q, ok := msg.(ftmgr.RecoveryQuery)
			return ok && q.From == joiner
		})
		marker := ftmgr.RecoveryQuery{From: "observer", Nonce: uint64(k), Data: durable.EncodeSnapshot(durable.Snapshot{})}
		if err := obs.Multicast(cfg.Group(), ftmgr.EncodeRecoveryQuery(marker)); err != nil {
			t.Fatal(err)
		}
		var answered []string
		await("every replica to answer the marker", func(d gcs.Delivery) bool {
			msg, _ := ftmgr.DecodeMessage(d.Payload)
			if rs, ok := msg.(ftmgr.RecoveryState); ok && rs.Nonce == marker.Nonce {
				answered = append(answered, rs.From)
			}
			return len(answered) == k
		})

		queries, answers := tap.take()
		if want := map[string]int{joiner: 1}; !reflect.DeepEqual(queries, want) {
			t.Errorf("join %d: recovery queries by sender %v, want %v", k, queries, want)
		}
		total := 0
		for _, n := range answers {
			total += n
		}
		if total != k-1 || answers[joiner] != 0 {
			t.Errorf("join %d: recovery answers by sender %v, want one from each of %v", k, answers, members[:k-1])
		}
	}
}

// TestDisasterPairConvergesEitherOrder is the whole-group disaster with two
// replicas, the case the view-growth re-query existed for: the replica that
// comes back first holds less state than the one that comes back second. In
// either join order, the later joiner's query reaches the earlier one, and
// both end at the ahead replica's op number and dedup rows, the behind one
// having persisted what it merged.
func TestDisasterPairConvergesEitherOrder(t *testing.T) {
	for _, names := range [][]string{{"behind", "ahead"}, {"ahead", "behind"}} {
		t.Run(names[0]+" joins first", func(t *testing.T) {
			hub := gcs.NewHub()
			if err := hub.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = hub.Close() })
			cfg := durableConfig(t, hub)
			// Both executed client a's five operations; only "ahead" went on
			// to execute client b's four.
			var ops []durable.Op
			for i := uint64(1); i <= 9; i++ {
				op := durable.Op{OpNumber: i, Counter: i, Client: "a", ClientSeq: i}
				if i > 5 {
					op.Client, op.ClientSeq = "b", i-5
				}
				ops = append(ops, op)
			}
			writeLog(t, cfg.StateDir, "behind", ops[:5])
			writeLog(t, cfg.StateDir, "ahead", ops)
			want := durable.Snapshot{OpNumber: 9, Counter: 9, Dedup: []durable.DedupEntry{
				{Client: "a", Seq: 5, Counter: 5}, {Client: "b", Seq: 4, Counter: 9},
			}}

			var reps []*replica.Replica
			for _, name := range names {
				reps = append(reps, launchJoined(t, hub, cfg, name))
			}
			for _, r := range reps {
				waitFor(t, r.Name()+" to converge", func() bool { return r.OpNumber() == 9 && r.StateCounter() == 9 })
			}
			// The dedup rows are read back from disk, where the behind replica
			// persisted the state it merged.
			for _, r := range reps {
				r.Stop()
				dir := filepath.Join(cfg.StateDir, r.Name())
				store, res, err := durable.Open(durable.Config{Dir: dir, Replica: r.Name()})
				if err != nil {
					t.Fatal(err)
				}
				store.Close()
				if !reflect.DeepEqual(res.Snap, want) {
					t.Errorf("%s recovers %+v from disk, want %+v", r.Name(), res.Snap, want)
				}
			}
		})
	}
}

// writeLog leaves ops in the op log of replica name under dir, as a replica
// that executed them and was then killed would.
func writeLog(t *testing.T, dir, name string, ops []durable.Op) {
	t.Helper()
	store, _, err := durable.Open(durable.Config{Dir: filepath.Join(dir, name), Replica: name})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		store.Append(op)
	}
	store.Close()
}
