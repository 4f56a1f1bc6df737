package gcs

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// propertySeed is the single explicit seed behind every PRNG in the
// property tests: per-goroutine streams derive from it by index, so a run
// is reproducible end to end from this one constant.
const propertySeed int64 = 42

// TestPropertyTotalOrderUnderConcurrency: N members multicast concurrently;
// every member must observe the identical (seq, sender, payload) sequence —
// the total-order invariant everything above the GCS depends on.
func TestPropertyTotalOrderUnderConcurrency(t *testing.T) {
	h := startHub(t)
	const (
		members   = 5
		perSender = 40
	)
	ms := make([]*Member, members)
	for i := range ms {
		ms[i] = dial(t, h, fmt.Sprintf("p%d", i))
		if err := ms[i].Join("g"); err != nil {
			t.Fatal(err)
		}
		nextOfKind(t, ms[i], DeliverView)
	}
	// Drain the remaining join views so only data remains afterwards.
	drainViews := func(m *Member, joinsAfter int) {
		for i := 0; i < joinsAfter; i++ {
			nextOfKind(t, m, DeliverView)
		}
	}
	for i, m := range ms {
		drainViews(m, members-1-i)
	}

	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func(idx int, m *Member) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(propertySeed + int64(idx)))
			for k := 0; k < perSender; k++ {
				payload := fmt.Sprintf("m%d-%d", idx, k)
				if err := m.Multicast("g", []byte(payload)); err != nil {
					return
				}
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
			}
		}(i, m)
	}
	wg.Wait()

	total := members * perSender
	sequences := make([][]string, members)
	for i, m := range ms {
		for len(sequences[i]) < total {
			d := nextOfKind(t, m, DeliverData)
			sequences[i] = append(sequences[i], fmt.Sprintf("%d:%s:%s", d.Seq, d.Sender, d.Payload))
		}
	}
	for i := 1; i < members; i++ {
		for k := 0; k < total; k++ {
			if sequences[i][k] != sequences[0][k] {
				t.Fatalf("member %d diverges at %d: %q vs %q",
					i, k, sequences[i][k], sequences[0][k])
			}
		}
	}
	// FIFO per sender: each sender's messages appear in send order.
	for idx := 0; idx < members; idx++ {
		sender := fmt.Sprintf("p%d", idx)
		wantNext := 0
		for _, entry := range sequences[0] {
			// entry format is "seq:sender:payload".
			var seq uint64
			var senderIdx, k int
			if n, _ := fmt.Sscanf(entry, "%d:"+sender+":m%d-%d", &seq, &senderIdx, &k); n == 3 && senderIdx == idx {
				if k != wantNext {
					t.Fatalf("sender %s message %d out of order (want %d): %s",
						sender, k, wantNext, entry)
				}
				wantNext++
			}
		}
		if wantNext != perSender {
			t.Fatalf("sender %s: only %d/%d messages matched", sender, wantNext, perSender)
		}
	}
}

// TestPropertySelfDeliveryCountExact: a member's own multicasts are
// delivered back exactly once each.
func TestPropertySelfDeliveryCountExact(t *testing.T) {
	h := startHub(t)
	m := dial(t, h, "solo")
	if err := m.Join("g"); err != nil {
		t.Fatal(err)
	}
	nextOfKind(t, m, DeliverView)
	const n = 100
	for i := 0; i < n; i++ {
		if err := m.Multicast("g", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[byte]int)
	for i := 0; i < n; i++ {
		d := nextOfKind(t, m, DeliverData)
		seen[d.Payload[0]]++
	}
	for i := 0; i < n; i++ {
		if seen[byte(i)] != 1 {
			t.Fatalf("message %d delivered %d times", i, seen[byte(i)])
		}
	}
}

// TestPropertyViewsMonotonic: view IDs strictly increase at every member.
func TestPropertyViewsMonotonic(t *testing.T) {
	h := startHub(t)
	watcher := dial(t, h, "w")
	if err := watcher.Join("g"); err != nil {
		t.Fatal(err)
	}
	// The watcher must be in the group before the churn starts: joins are
	// sequenced in the order the hub's readers post them, not the order
	// they were written in, and views ahead of its own join never reach it.
	first := nextOfKind(t, watcher, DeliverView)
	// Generate churn: members joining and leaving.
	for i := 0; i < 6; i++ {
		m := dial(t, h, fmt.Sprintf("churn%d", i))
		if err := m.Join("g"); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			_ = m.Leave("g")
		}
	}
	last, views := first.View.ID, 1
	timeout := time.After(5 * time.Second)
	for views < 8 { // 1 own join + 6 joins + >=1 leave
		select {
		case d, ok := <-watcher.Deliveries():
			if !ok {
				t.Fatal("watcher disconnected")
			}
			if d.Kind != DeliverView {
				continue
			}
			if d.View.ID <= last && last != 0 {
				t.Fatalf("view id went %d -> %d", last, d.View.ID)
			}
			last = d.View.ID
			views++
		case <-timeout:
			t.Fatalf("only %d views observed", views)
		}
	}
}
