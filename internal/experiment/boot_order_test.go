package experiment

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/namesvc"
)

// heldConn is a hub-side member connection whose reads can be made to wait.
type heldConn struct {
	net.Conn
	reads   atomic.Int32
	before  func(call int32) // runs at the start of each Read, with its 1-based ordinal
	release <-chan struct{}
}

func (c *heldConn) Read(p []byte) (int, error) {
	n := c.reads.Add(1)
	if c.before != nil {
		c.before(n)
	}
	if n > 1 && c.release != nil {
		<-c.release // the hello got through; everything after it waits
	}
	return c.Conn.Read(p)
}

// TestBootOrderMatchesNamingOrder is the regression test for the boot-order
// race: replica.Start returns with the join frame written but not yet
// sequenced, so a Deployment that launched r2 straight away could see r2's
// join reach the hub's sequencer first — a view whose primary is r2 while
// the naming service lists r1 first. Here r1's join frame is held back on
// the hub's side of r1's connection until r2's join has been read and posted
// (r2's connection starts its third read) or, since a Deployment that waits
// for r1 never launches r2 meanwhile, until 200 ms have passed.
func TestBootOrderMatchesNamingOrder(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	timer := time.AfterFunc(200*time.Millisecond, open)
	defer timer.Stop()

	var accepted atomic.Int32
	wrap := func(c net.Conn) net.Conn {
		switch accepted.Add(1) {
		case 1: // r1
			return &heldConn{Conn: c, release: release}
		case 2: // whoever dials next: r2 at the parent commit
			return &heldConn{Conn: c, before: func(call int32) {
				if call == 3 { // hello and join are read and posted
					open()
				}
			}}
		}
		return c
	}
	d, err := newDeployment(Scenario{Scheme: ftmgr.ReactiveNoCache, Replicas: 3, Seed: 1}, gcs.WithConnWrapper(wrap))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if got := d.Hub().Members(d.Group()); len(got) < 3 || got[0] != "r1" || got[1] != "r2" || got[2] != "r3" {
		t.Fatalf("hub membership %v, want r1 r2 r3 first, in launch order", got)
	}
	observer, err := gcs.Dial(d.HubAddr(), "observer")
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()
	if err := observer.Join(d.Group()); err != nil {
		t.Fatal(err)
	}
	var view gcs.View
	for dv := range observer.Deliveries() {
		if dv.Kind == gcs.DeliverView {
			view = dv.View
			break
		}
	}
	if view.Primary() != "r1" {
		t.Fatalf("view %v: primary %q, want r1", view.Members, view.Primary())
	}
	names := namesvc.NewClient(d.NamesAddr())
	defer names.Close()
	entries, err := names.List(d.Service() + "/")
	if err != nil || len(entries) != 3 {
		t.Fatalf("naming list: %d entries, %v", len(entries), err)
	}
	if want := d.Service() + "/" + view.Primary(); entries[0].Name != want {
		t.Fatalf("naming service lists %q first, the view's primary is %q", entries[0].Name, view.Primary())
	}
}
