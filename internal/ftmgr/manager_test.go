package ftmgr

import (
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/gcs"
	"mead/internal/giop"
	"mead/internal/interceptor"
	"mead/internal/resource"
)

const testGroup = "mead.timeofday"

func startHub(t *testing.T) *gcs.Hub {
	t.Helper()
	h := gcs.NewHub()
	if err := h.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h
}

func dialMember(t *testing.T, h *gcs.Hub, name string) *gcs.Member {
	t.Helper()
	m, err := gcs.Dial(h.Addr(), name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// managerNode bundles a Manager with a delivery pump, as a replica would.
type managerNode struct {
	m      *Manager
	member *gcs.Member
}

func newManagerNode(t *testing.T, h *gcs.Hub, name string, scheme Scheme, mon Monitor) *managerNode {
	t.Helper()
	member := dialMember(t, h, name)
	m, err := NewManager(Config{
		ReplicaName: name,
		Group:       testGroup,
		Scheme:      scheme,
		Monitor:     mon,
		Member:      member,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := member.Join(testGroup); err != nil {
		t.Fatal(err)
	}
	go func() {
		for d := range member.Deliveries() {
			m.HandleDelivery(d)
		}
	}()
	node := &managerNode{m: m, member: member}
	// Wait until this node's own join is reflected in its view, so joins
	// from successively created nodes are strictly ordered.
	waitFor(t, name+" to join", func() bool {
		for _, member := range m.View().Members {
			if member == name {
				return true
			}
		}
		return false
	})
	return node
}

func budgetAt(t *testing.T, frac float64) *resource.Budget {
	t.Helper()
	b, err := resource.NewBudget("memory", 1000)
	if err != nil {
		t.Fatal(err)
	}
	b.Consume(int64(frac * 1000))
	return b
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestNewManagerValidation(t *testing.T) {
	h := startHub(t)
	member := dialMember(t, h, "v1")
	mon := budgetAt(t, 0)
	if _, err := NewManager(Config{Monitor: mon}); err == nil {
		t.Fatal("nil member accepted")
	}
	if _, err := NewManager(Config{Member: member}); err == nil {
		t.Fatal("nil monitor accepted")
	}
	if _, err := NewManager(Config{Member: member, Monitor: mon,
		LaunchThreshold: 0.95, MigrateThreshold: 0.9}); err == nil {
		t.Fatal("inverted thresholds accepted")
	}
	m, err := NewManager(Config{Member: member, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.LaunchThreshold != DefaultLaunchThreshold ||
		m.cfg.MigrateThreshold != DefaultMigrateThreshold {
		t.Fatal("defaults not applied")
	}
}

func TestAnnouncePropagationAndNextReplica(t *testing.T) {
	h := startHub(t)
	mon := budgetAt(t, 0)
	n1 := newManagerNode(t, h, "r1", MeadMessage, mon)
	n2 := newManagerNode(t, h, "r2", MeadMessage, mon)
	n3 := newManagerNode(t, h, "r3", MeadMessage, mon)

	for i, n := range []*managerNode{n1, n2, n3} {
		port := uint16(7001 + i)
		if err := n.m.AnnounceSelf(n.member.Name()+"-addr", []giop.IOR{sampleIOR(port)}); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, "r1 to learn all replicas", func() bool { return len(n1.m.Replicas()) == 3 })
	waitFor(t, "r3 to learn all replicas", func() bool { return len(n3.m.Replicas()) == 3 })

	next, ok := n1.m.NextReplica()
	if !ok || next.Name != "r2" {
		t.Fatalf("next after r1 = %+v, %v", next, ok)
	}
	next, ok = n3.m.NextReplica()
	if !ok || next.Name != "r1" {
		t.Fatalf("next after r3 = %+v, %v (should wrap)", next, ok)
	}
	if !n1.m.IsPrimary() || n2.m.IsPrimary() {
		t.Fatal("primary flags wrong")
	}
}

func TestNextReplicaSkipsDeparted(t *testing.T) {
	h := startHub(t)
	mon := budgetAt(t, 0)
	n1 := newManagerNode(t, h, "r1", MeadMessage, mon)
	n2 := newManagerNode(t, h, "r2", MeadMessage, mon)
	n3 := newManagerNode(t, h, "r3", MeadMessage, mon)
	for _, n := range []*managerNode{n1, n2, n3} {
		_ = n.m.AnnounceSelf("addr-"+n.member.Name(), nil)
	}
	waitFor(t, "full membership", func() bool { return len(n1.m.Replicas()) == 3 })

	_ = n2.member.Close() // r2 crashes
	waitFor(t, "view without r2", func() bool { return len(n1.m.View().Members) == 2 })
	next, ok := n1.m.NextReplica()
	if !ok || next.Name != "r3" {
		t.Fatalf("next after r1 with r2 dead = %+v, %v", next, ok)
	}
}

func TestSyncListRebroadcastByCoordinator(t *testing.T) {
	// A late joiner must learn earlier replicas' endpoints from the
	// coordinator's SyncList even though it missed their Announces.
	h := startHub(t)
	mon := budgetAt(t, 0)
	n1 := newManagerNode(t, h, "r1", MeadMessage, mon)
	_ = n1.m.AnnounceSelf("addr-r1", []giop.IOR{sampleIOR(7001)})
	waitFor(t, "r1 self-announce", func() bool { return len(n1.m.Replicas()) == 1 })

	n2 := newManagerNode(t, h, "r2", MeadMessage, mon)
	// n2 never saw r1's announce; the view change triggers r1 (the
	// coordinator) to re-sync the listing.
	waitFor(t, "r2 to learn r1 via sync", func() bool {
		for _, a := range n2.m.Replicas() {
			if a.Name == "r1" && a.Addr == "addr-r1" {
				return true
			}
		}
		return false
	})
}

func TestThresholdNoticeFiresOnce(t *testing.T) {
	h := startHub(t)
	b := budgetAt(t, 0)
	node := newManagerNode(t, h, "r1", MeadMessage, b)
	_ = node.m.AnnounceSelf("addr", nil)

	// Observer subscribed to the group sees the notice. Wait for its own
	// join view so the notice cannot race its membership.
	observer := dialMember(t, h, "obs")
	_ = observer.Join(testGroup)
	for d := range observer.Deliveries() {
		if d.Kind == gcs.DeliverView {
			break
		}
	}

	if node.m.PollThresholds() {
		t.Fatal("migrating below thresholds")
	}
	b.Consume(850) // 85% > launch, < migrate
	if node.m.PollThresholds() {
		t.Fatal("migrating below migrate threshold")
	}
	_ = node.m.PollThresholds() // second crossing: no duplicate notice

	var notices atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		timeout := time.After(2 * time.Second)
		for {
			select {
			case d, ok := <-observer.Deliveries():
				if !ok {
					return
				}
				if d.Kind != gcs.DeliverData {
					continue
				}
				if msg, err := DecodeMessage(d.Payload); err == nil {
					if _, isNotice := msg.(Notice); isNotice {
						notices.Add(1)
					}
				}
			case <-timeout:
				return
			}
		}
	}()
	<-done
	if notices.Load() != 1 {
		t.Fatalf("notices observed = %d, want exactly 1", notices.Load())
	}
}

func TestMigrateThresholdFiresCallback(t *testing.T) {
	h := startHub(t)
	b := budgetAt(t, 0)
	member := dialMember(t, h, "r1")
	var migrated atomic.Int32
	m, err := NewManager(Config{
		ReplicaName: "r1", Group: testGroup, Scheme: MeadMessage,
		Monitor: b, Member: member,
		OnMigrate: func() { migrated.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Consume(950)
	if !m.PollThresholds() {
		t.Fatal("not migrating at 95%")
	}
	_ = m.PollThresholds()
	if migrated.Load() != 1 {
		t.Fatalf("OnMigrate fired %d times", migrated.Load())
	}
	if !m.Migrating() {
		t.Fatal("Migrating() = false")
	}
}

func TestPrimaryQueryAnswered(t *testing.T) {
	h := startHub(t)
	mon := budgetAt(t, 0)
	n1 := newManagerNode(t, h, "r1", NeedsAddressing, mon)
	n2 := newManagerNode(t, h, "r2", NeedsAddressing, mon)
	_ = n1.m.AnnounceSelf("addr-r1", []giop.IOR{sampleIOR(7001)})
	_ = n2.m.AnnounceSelf("addr-r2", nil)
	waitFor(t, "membership", func() bool { return len(n1.m.Replicas()) == 2 })

	client := dialMember(t, h, "client-1")
	// Ensure registration before multicasting (join a scratch group).
	_ = client.Join("scratch")
	<-client.Deliveries()

	if err := client.Multicast(testGroup, EncodeQueryPrimary(QueryPrimary{ReplyTo: "client-1"})); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case d := <-client.Deliveries():
			if d.Kind != gcs.DeliverPrivate {
				continue
			}
			msg, err := DecodeMessage(d.Payload)
			if err != nil {
				t.Fatal(err)
			}
			p, ok := msg.(PrimaryIs)
			if !ok {
				continue
			}
			if p.Name != "r1" || p.Addr != "addr-r1" {
				t.Fatalf("primary answer = %+v", p)
			}
			return
		case <-deadline:
			t.Fatal("no primary answer")
		}
	}
}

func TestForwardIORLookup(t *testing.T) {
	h := startHub(t)
	mon := budgetAt(t, 0)
	n1 := newManagerNode(t, h, "r1", LocationForward, mon)
	n2 := newManagerNode(t, h, "r2", LocationForward, mon)
	key := giop.MakeObjectKey("timeofday", "clock")
	_ = n1.m.AnnounceSelf("a1", []giop.IOR{giop.NewIOR("IDL:t:1.0", "127.0.0.1", 1, key)})
	_ = n2.m.AnnounceSelf("a2", []giop.IOR{giop.NewIOR("IDL:t:1.0", "127.0.0.1", 2, key)})
	waitFor(t, "membership", func() bool { return len(n1.m.Replicas()) == 2 })

	ior, addr, ok := n1.m.forwardIORFor(giop.Hash16(key))
	if !ok {
		t.Fatal("no forward IOR")
	}
	if addr != "a2" {
		t.Fatalf("forward addr = %q", addr)
	}
	prof, _ := ior.IIOP()
	if prof.Port != 2 {
		t.Fatalf("forward port = %d", prof.Port)
	}
	if _, _, ok := n1.m.forwardIORFor(giop.Hash16([]byte("unknown-key"))); ok {
		t.Fatal("unknown key produced a forward IOR")
	}
}

func TestCheckThresholdsCountsFromWritePath(t *testing.T) {
	// Verifies the LOCATION_FORWARD rewrite path produces a correct
	// fabricated reply once migrating.
	h := startHub(t)
	b := budgetAt(t, 0.95)
	n1 := newManagerNode(t, h, "r1", LocationForward, b)
	n2 := newManagerNode(t, h, "r2", LocationForward, b)
	key := giop.MakeObjectKey("timeofday", "clock")
	_ = n1.m.AnnounceSelf("a1", []giop.IOR{giop.NewIOR("IDL:t:1.0", "127.0.0.1", 1, key)})
	_ = n2.m.AnnounceSelf("a2", []giop.IOR{giop.NewIOR("IDL:t:1.0", "127.0.0.1", 2, key)})
	waitFor(t, "membership", func() bool { return len(n1.m.Replicas()) == 2 })

	n1.m.PollThresholds()
	orig := giop.EncodeReply(cdr.BigEndian, giop.ReplyHeader{RequestID: 77, Status: giop.ReplyNoException}, nil)
	frame := giop.Frame{Kind: giop.FrameGIOP, Header: giop.Header{Major: 1, Order: cdr.BigEndian, Type: giop.MsgReply, Size: uint32(len(orig) - giop.HeaderLen)}, Raw: orig}
	out, err := n1.m.rewriteLocationForward(frame, trackedRequest{id: 77, keyHash: giop.Hash16(key)})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := giop.ParseHeader(out[:giop.HeaderLen])
	if err != nil {
		t.Fatal(err)
	}
	rh, d, err := giop.DecodeReply(h2.Order, out[giop.HeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if rh.Status != giop.ReplyLocationForward || rh.RequestID != 77 {
		t.Fatalf("rewritten reply = %+v", rh)
	}
	fwd, err := giop.DecodeIOR(d)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := fwd.IIOP()
	if prof.Port != 2 {
		t.Fatalf("forwarded to port %d", prof.Port)
	}
	if n1.m.Migrations() != 1 {
		t.Fatalf("migrations = %d", n1.m.Migrations())
	}
}

// TestServerReadHookObservesOnlyRequests feeds the server-side interceptor a
// frame of a type GIOP does not define (8, which old peers of this repo may
// still emit) wrapping a well-formed Request, then the Request on its own.
// Both pass through byte for byte; only the real Request is bookkept.
func TestServerReadHookObservesOnlyRequests(t *testing.T) {
	h := startHub(t)
	var first atomic.Int32
	m, err := NewManager(Config{
		ReplicaName:    "r1",
		Group:          testGroup,
		Scheme:         LocationForward,
		Monitor:        budgetAt(t, 0),
		Member:         dialMember(t, h, "r1"),
		OnFirstRequest: func() { first.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	peer, under := net.Pipe()
	defer peer.Close()
	conn := m.WrapServerConn(under)
	defer conn.Close()

	req := giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
		RequestID: 41, ResponseExpected: true, ObjectKey: []byte("key"), Operation: "op",
	}, nil)
	pass := func(frame []byte) {
		t.Helper()
		go func() { _, _ = peer.Write(frame) }()
		got := make([]byte, len(frame))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, frame) {
			t.Fatal("frame altered in passing")
		}
	}
	pass(giop.EncodeMessage(cdr.BigEndian, giop.MsgType(8), req))
	if n := first.Load(); n != 0 {
		t.Fatalf("a type-8 frame counted as %d requests", n)
	}
	pass(req)
	if n := first.Load(); n != 1 {
		t.Fatalf("first-request callbacks after a real Request = %d, want 1", n)
	}
}

// TestLocationForwardAnswersEachInFlightRequest drives the server-side hooks
// the way a pooled client does: two Requests for two different objects are
// read before either Reply is written, and both Replies leave in one burst
// while the replica is migrating. Each must be replaced by a
// LOCATION_FORWARD carrying its own request id and its own object's IOR at
// the next replica — taking both from "the last request seen" answered the
// second request twice and the first never.
func TestLocationForwardAnswersEachInFlightRequest(t *testing.T) {
	h := startHub(t)
	b := budgetAt(t, 0.95)
	n1 := newManagerNode(t, h, "r1", LocationForward, b)
	n2 := newManagerNode(t, h, "r2", LocationForward, b)
	keyA := giop.MakeObjectKey("timeofday", "clock")
	keyB := giop.MakeObjectKey("timeofday", "clock-1")
	iorsAt := func(port uint16) []giop.IOR {
		return []giop.IOR{
			giop.NewIOR("IDL:t:1.0", "127.0.0.1", port, keyA),
			giop.NewIOR("IDL:t:1.0", "127.0.0.1", port, keyB),
		}
	}
	_ = n1.m.AnnounceSelf("a1", iorsAt(1))
	_ = n2.m.AnnounceSelf("a2", iorsAt(2))
	waitFor(t, "membership", func() bool { return len(n1.m.Replicas()) == 2 })

	peer, under := net.Pipe()
	defer peer.Close()
	conn := n1.m.WrapServerConn(under)
	defer conn.Close()

	request := func(id uint32, key []byte, expectReply bool) []byte {
		return giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
			RequestID: id, ResponseExpected: expectReply, ObjectKey: key, Operation: "time_of_day",
		}, nil)
	}
	// A oneway in between must not be remembered: no Reply will ever drop it.
	in := bytes.Join([][]byte{request(11, keyA, true), request(12, keyA, false), request(13, keyB, true)}, nil)
	go func() { _, _ = peer.Write(in) }()
	if _, err := io.ReadFull(conn, make([]byte, len(in))); err != nil {
		t.Fatal(err)
	}

	reply := func(id uint32) []byte {
		return giop.EncodeReply(cdr.BigEndian, giop.ReplyHeader{RequestID: id, Status: giop.ReplyNoException}, nil)
	}
	// Replies may overtake each other; 99 answers no request this
	// connection has seen and must pass through untouched.
	go func() {
		_, _ = conn.(*interceptor.Conn).WriteBuffers(net.Buffers{reply(13), reply(99), reply(11)})
	}()
	wantKey := map[uint32][]byte{13: keyB, 11: keyA}
	for i, wantID := range []uint32{13, 99, 11} {
		hd, body, err := giop.ReadMessage(peer)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		rh, d, err := giop.DecodeReply(hd.Order, body)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if rh.RequestID != wantID {
			t.Fatalf("frame %d answers request %d, want %d", i, rh.RequestID, wantID)
		}
		if wantID == 99 {
			if rh.Status != giop.ReplyNoException {
				t.Fatalf("reply to an unknown request rewritten to %v", rh.Status)
			}
			continue
		}
		if rh.Status != giop.ReplyLocationForward {
			t.Fatalf("reply %d has status %v, want LOCATION_FORWARD", wantID, rh.Status)
		}
		fwd, err := giop.DecodeIOR(d)
		if err != nil {
			t.Fatal(err)
		}
		prof, _ := fwd.IIOP()
		if prof.Port != 2 || !bytes.Equal(prof.ObjectKey, wantKey[wantID]) {
			t.Fatalf("reply %d forwards to port %d key %q", wantID, prof.Port, prof.ObjectKey)
		}
	}
	if got := n1.m.Migrations(); got != 2 {
		t.Fatalf("migrations = %d, want 2 (one per forwarded request)", got)
	}
}

// TestPrimaryQueryAcrossCrashView feeds one Manager scripted deliveries —
// no delivery pump, no timing — in the two orders the hub can sequence a
// client's primary query and the view that drops the crashed primary. The
// client must get exactly one PrimaryIs either way. Query first is the order
// a busy host produces: no survivor is primary yet, so the one the view makes
// primary has to have kept the query; and a member the next view does not make
// primary must have dropped it, or it would answer at some later view.
func TestPrimaryQueryAcrossCrashView(t *testing.T) {
	view := func(seq uint64, members ...string) gcs.Delivery {
		return gcs.Delivery{Kind: gcs.DeliverView, Group: testGroup, Seq: seq,
			View: gcs.View{Group: testGroup, ID: seq, Seq: seq, Members: members}}
	}
	data := func(payload []byte) gcs.Delivery {
		return gcs.Delivery{Kind: gcs.DeliverData, Group: testGroup, Payload: payload}
	}
	query := data(EncodeQueryPrimary(QueryPrimary{ReplyTo: "client-1"}))

	cases := []struct {
		name    string
		replica string
		script  []gcs.Delivery
		want    int
	}{
		{"query then crash view", "r2",
			[]gcs.Delivery{query, query, view(2, "r2", "r3"), view(3, "r2", "r3", "r1b")}, 1},
		{"query, a view that leaves the primary in place, then the crash view", "r2",
			[]gcs.Delivery{query, view(2, "r1", "r2", "r3", "r4"), view(3, "r2", "r3", "r4")}, 0},
		{"crash view then query", "r2",
			[]gcs.Delivery{view(2, "r2", "r3"), query, view(3, "r2", "r3", "r1b")}, 1},
		{"query then crash view, at the member it does not make primary", "r3",
			[]gcs.Delivery{query, view(2, "r2", "r3"), view(3, "r3")}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := startHub(t)
			member := dialMember(t, h, tc.replica)
			client := dialMember(t, h, "client-1")
			// Its own view of a scratch group tells the client the hub knows it
			// by name, which a private message to it needs.
			_ = client.Join("scratch")
			<-client.Deliveries()
			m, err := NewManager(Config{
				ReplicaName: tc.replica, Group: testGroup, Scheme: NeedsAddressing,
				Monitor: budgetAt(t, 0), Member: member,
			})
			if err != nil {
				t.Fatal(err)
			}
			m.HandleDelivery(view(1, "r1", "r2", "r3"))
			for i, name := range []string{"r1", "r2", "r3"} {
				m.HandleDelivery(data(EncodeAnnounce(Announce{
					Name: name, Addr: "addr-" + name, IORs: []giop.IOR{sampleIOR(uint16(7001 + i))},
				})))
			}
			for _, d := range tc.script {
				m.HandleDelivery(d)
			}
			// The hub delivers one sender's private messages in order: whatever
			// the script made the manager send is ahead of this marker.
			if err := member.Send("client-1", EncodeNotice(Notice{Replica: "end-of-script"})); err != nil {
				t.Fatal(err)
			}
			answers := 0
			for {
				var d gcs.Delivery
				select {
				case d = <-client.Deliveries():
				case <-time.After(5 * time.Second):
					t.Fatal("the end-of-script marker never arrived")
				}
				msg, err := DecodeMessage(d.Payload)
				if d.Kind != gcs.DeliverPrivate || err != nil {
					continue
				}
				if p, ok := msg.(PrimaryIs); ok {
					if p.Name != tc.replica || p.Addr != "addr-"+tc.replica {
						t.Fatalf("primary answer = %+v", p)
					}
					answers++
				}
				if _, ok := msg.(Notice); ok {
					break
				}
			}
			if answers != tc.want {
				t.Fatalf("client got %d PrimaryIs answers, want %d", answers, tc.want)
			}
		})
	}
}
