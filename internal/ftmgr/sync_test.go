package ftmgr

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mead/internal/gcs"
	"mead/internal/giop"
)

// syncRig feeds several Managers one scripted total order — no delivery pump,
// no timing — and captures the SyncLists they multicast, so a test decides
// which of them the sequencer delivers and where.
type syncRig struct {
	t       *testing.T
	hub     *gcs.Hub
	obs     *gcs.Member // joined to the group: sees every multicast
	mgrs    map[string]*Manager
	members map[string]*gcs.Member
	view    gcs.View
}

func newSyncRig(t *testing.T) *syncRig {
	h := startHub(t)
	obs := dialMember(t, h, "observer")
	if err := obs.Join(testGroup); err != nil {
		t.Fatal(err)
	}
	<-obs.Deliveries() // its own view: the hub knows it is a member
	return &syncRig{t: t, hub: h, obs: obs, mgrs: map[string]*Manager{}, members: map[string]*gcs.Member{}}
}

func announcement(name string) Announce {
	return Announce{Name: name, Addr: "addr-" + name, IORs: []giop.IOR{sampleIOR(7001)}}
}

// viewOf delivers the next view, listing members (space-separated), to each
// manager in it, starting a manager for every name not seen before the way a
// replica starts: it announces itself before it reads its join view. It
// requires that exactly the managers named in senders multicast a SyncList,
// each answering this view, and returns those payloads by sender.
func (r *syncRig) viewOf(members string, senders ...string) map[string][]byte {
	r.t.Helper()
	names := strings.Fields(members)
	for _, name := range names {
		if r.mgrs[name] != nil {
			continue
		}
		member := dialMember(r.t, r.hub, name)
		m, err := NewManager(Config{ReplicaName: name, Group: testGroup, Scheme: MeadMessage,
			Monitor: budgetAt(r.t, 0), Member: member})
		if err != nil {
			r.t.Fatal(err)
		}
		a := announcement(name)
		if err := m.AnnounceSelf(a.Addr, a.IORs); err != nil {
			r.t.Fatal(err)
		}
		r.mgrs[name], r.members[name] = m, member
	}
	r.view = gcs.View{Group: testGroup, ID: r.view.ID + 1, Seq: r.view.ID + 1, Members: names}
	for _, name := range names {
		r.mgrs[name].HandleDelivery(gcs.Delivery{Kind: gcs.DeliverView, Group: testGroup, Seq: r.view.Seq, View: r.view})
	}
	// The hub keeps one sender's multicasts in order: whatever a manager
	// multicast while handling the view is ahead of its marker.
	for _, name := range names {
		if err := r.members[name].Multicast(testGroup, EncodeNotice(Notice{Replica: "marker"})); err != nil {
			r.t.Fatal(err)
		}
	}
	sent := map[string][]byte{}
	for markers := 0; markers < len(names); {
		var d gcs.Delivery
		select {
		case d = <-r.obs.Deliveries():
		case <-time.After(5 * time.Second):
			r.t.Fatalf("view %d: %d of %d markers arrived", r.view.ID, markers, len(names))
		}
		switch msg, _ := DecodeMessage(d.Payload); v := msg.(type) {
		case Notice:
			markers++
		case SyncList:
			if v.View != r.view.ID {
				r.t.Fatalf("view %d: %s's SyncList answers view %d", r.view.ID, d.Sender, v.View)
			}
			sent[d.Sender] = d.Payload
		}
	}
	var got []string
	for _, name := range names {
		if sent[name] != nil {
			got = append(got, name)
		}
	}
	if !reflect.DeepEqual(got, senders) {
		r.t.Fatalf("view %d [%s]: SyncList sent by %v, want %v", r.view.ID, members, got, senders)
	}
	return sent
}

// deliver hands every manager in the current view one multicast.
func (r *syncRig) deliver(sender string, payload []byte) {
	for _, name := range r.view.Members {
		r.mgrs[name].HandleDelivery(gcs.Delivery{Kind: gcs.DeliverData, Group: testGroup, Sender: sender, Payload: payload})
	}
}

func (r *syncRig) announce(name string) { r.deliver(name, EncodeAnnounce(announcement(name))) }

// needSync requires that, of the managers in the current view, exactly those
// named (space-separated) hold the listing unsynchronized. A joiner counts no
// one on its first view, so it can differ from the members that saw it join.
func (r *syncRig) needSync(members string) {
	r.t.Helper()
	var got []string
	for _, name := range r.view.Members {
		m := r.mgrs[name]
		m.mu.Lock()
		if len(m.unsynced) > 0 {
			got = append(got, name)
		}
		m.mu.Unlock()
	}
	if want := strings.Fields(members); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		r.t.Fatalf("view %d: the listing needs a sync at %v, want %v", r.view.ID, got, want)
	}
}

// listing requires every manager in the current view to list exactly the
// view's members, each at its announced address.
func (r *syncRig) listing() {
	r.t.Helper()
	for _, name := range r.view.Members {
		var got []string
		for _, a := range r.mgrs[name].Replicas() {
			if a.Addr != "addr-"+a.Name {
				r.t.Fatalf("%s lists %s at %q", name, a.Name, a.Addr)
			}
			got = append(got, a.Name)
		}
		if !reflect.DeepEqual(got, r.view.Members) {
			r.t.Fatalf("view %d: %s lists %v, want %v", r.view.ID, name, got, r.view.Members)
		}
	}
}

// bootstrap brings up r1, r2, r3 the way replicas start, each join answered
// by r1's SyncList; the joiner itself sends none.
func (r *syncRig) bootstrap() {
	r.viewOf("r1")
	r.announce("r1")
	r.needSync("")
	s := r.viewOf("r1 r2", "r1")
	r.announce("r2")
	r.needSync("r1")
	r.deliver("r1", s["r1"])
	s = r.viewOf("r1 r2 r3", "r1")
	r.announce("r3")
	r.needSync("r1 r2")
	r.deliver("r1", s["r1"])
	r.needSync("")
	r.listing()
}

// TestSyncListOnlyWhileAJoinerIsUnsynced drives the listing-sync rule through
// the orderings that decide it: the coordinator multicasts a SyncList at a
// view only while a member that joined has not been answered, a SyncList
// answers only the view it names, and a joiner's own partial list answers
// nothing.
func TestSyncListOnlyWhileAJoinerIsUnsynced(t *testing.T) {
	t.Run("join, its SyncList, then leave views send none", func(t *testing.T) {
		r := newSyncRig(t)
		r.bootstrap()
		r.viewOf("r2 r3") // r1 crashes
		s := r.viewOf("r2 r3 r4", "r2")
		r.announce("r4")
		r.deliver("r2", s["r2"])
		r.needSync("")
		r.viewOf("r3 r4") // r2 rejuvenates
		r.listing()
	})
	t.Run("the coordinator leaves before its SyncList is sequenced", func(t *testing.T) {
		r := newSyncRig(t)
		r.bootstrap()
		r.viewOf("r1 r2 r3 r4", "r1") // r1's list is lost with it
		r.announce("r4")
		r.needSync("r1 r2 r3")
		s := r.viewOf("r2 r3 r4", "r2")
		r.deliver("r2", s["r2"])
		r.needSync("")
		r.viewOf("r3 r4")
		r.listing()
	})
	t.Run("a SyncList answering an older view clears nothing", func(t *testing.T) {
		r := newSyncRig(t)
		r.bootstrap()
		s4 := r.viewOf("r1 r2 r3 r4", "r1")
		r.announce("r4")
		r.viewOf("r1 r2 r4", "r1") // r3 leaves; r1's second list is lost with r1
		r.deliver("r1", s4["r1"])
		r.needSync("r1 r2")
		s := r.viewOf("r2 r4", "r2")
		r.deliver("r2", s["r2"])
		r.needSync("")
		r.listing()
	})
	t.Run("two joins before one sync", func(t *testing.T) {
		r := newSyncRig(t)
		r.bootstrap()
		s4 := r.viewOf("r1 r2 r3 r4", "r1")
		r.announce("r4")
		// r4 knows only itself, takes itself for the coordinator and answers
		// r5's join with a list of one.
		s5 := r.viewOf("r1 r2 r3 r4 r5", "r1", "r4")
		r.announce("r5")
		r.deliver("r1", s4["r1"])
		r.needSync("r1 r2 r3 r4")
		r.deliver("r4", s5["r4"])
		r.needSync("r1 r2 r3") // r4 cannot tell its own list is partial
		// r1 crashes before its list for view 5 is sequenced.
		s := r.viewOf("r2 r3 r4 r5", "r2")
		r.deliver("r2", s["r2"])
		r.needSync("")
		r.viewOf("r2 r4 r5")
		r.listing()
	})
}

// TestCrashViewSendsNoSyncList is the hub-level count guard of `make
// perf-guards`: in a synced group, the view a crash produces reaches the
// members and no SyncList follows it, and a relaunched replica's join is
// answered by exactly one SyncList, the coordinator's.
func TestCrashViewSendsNoSyncList(t *testing.T) {
	h := startHub(t)
	mon := budgetAt(t, 0)
	// start runs a replica's manager the way replica.Start does (join,
	// announce, then pump), and multicasts a marker once each view has been
	// handled: a SyncList the manager sent for the view is ahead of it.
	start := func(name string) *Manager {
		member := dialMember(t, h, name)
		m, err := NewManager(Config{ReplicaName: name, Group: testGroup, Scheme: ReactiveNoCache, Monitor: mon, Member: member})
		if err != nil {
			t.Fatal(err)
		}
		if err := member.Join(testGroup); err != nil {
			t.Fatal(err)
		}
		if err := m.AnnounceSelf("addr-"+name, []giop.IOR{sampleIOR(7001)}); err != nil {
			t.Fatal(err)
		}
		go func() {
			for d := range member.Deliveries() {
				m.HandleDelivery(d)
				if d.Kind == gcs.DeliverView {
					_ = member.Multicast(testGroup, EncodeNotice(Notice{Replica: name, Usage: float64(d.View.ID)}))
				}
			}
		}()
		return m
	}
	obs := dialMember(t, h, "observer")
	if err := obs.Join(testGroup); err != nil {
		t.Fatal(err)
	}
	<-obs.Deliveries() // its own view: it is the oldest member
	// count reads the observer's deliveries until the view listing members
	// (space-separated) and the markers of that view from every replica in it,
	// and returns how many SyncLists arrived after the view.
	count := func(members string) int {
		t.Helper()
		want := strings.Fields(members)
		var view uint64
		markers, syncs := 0, 0
		for view == 0 || markers < len(want)-1 { // the observer sends no marker
			var d gcs.Delivery
			select {
			case d = <-obs.Deliveries():
			case <-time.After(5 * time.Second):
				t.Fatalf("view [%s]: seen=%v, %d markers", members, view != 0, markers)
			}
			if d.Kind == gcs.DeliverView {
				if reflect.DeepEqual(d.View.Members, want) {
					view, markers, syncs = d.View.ID, 0, 0
				}
				continue
			}
			switch msg, _ := DecodeMessage(d.Payload); v := msg.(type) {
			case Notice:
				if view != 0 && uint64(v.Usage) == view {
					markers++
				}
			case SyncList:
				if view != 0 {
					syncs++
				}
			}
		}
		return syncs
	}

	m1 := start("r1")
	count("observer r1")
	start("r2")
	count("observer r1 r2")
	start("r3")
	if n := count("observer r1 r2 r3"); n != 1 {
		t.Fatalf("r3's join: %d SyncLists, want 1", n)
	}
	waitFor(t, "r1 to list all three", func() bool { return len(m1.Replicas()) == 3 })

	m1.cfg.Member.Close() // r1 crashes
	if n := count("observer r2 r3"); n != 0 {
		t.Fatalf("the crash view was followed by %d SyncLists, want none", n)
	}
	r1b := start("r1b")
	if n := count("observer r2 r3 r1b"); n != 1 {
		t.Fatalf("the relaunch's join: %d SyncLists, want 1", n)
	}
	waitFor(t, "the relaunched replica to list the group", func() bool { return len(r1b.Replicas()) == 3 })
}
