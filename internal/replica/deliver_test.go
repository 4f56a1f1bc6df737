package replica

import (
	"testing"

	"mead/internal/durable"
	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/resource"
)

// TestCheckpointDeliveryAllocsExact is the decode-once guard of `make
// perf-guards`: a backup's delivery loop handles a Checkpoint with one
// FT-manager decode (in HandleDelivery, which hands the message back) and one
// snapshot decode, and allocates nothing besides. A second decode of the
// payload in the loop shows as three more allocations. A durable and an
// in-memory backup take the same path and cost the same.
func TestCheckpointDeliveryAllocsExact(t *testing.T) {
	h := gcs.NewHub()
	if err := h.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	snap := durable.Snapshot{OpNumber: 9, Counter: 9, Dedup: []durable.DedupEntry{
		{Client: "client-1", Seq: 4, Counter: 8}, {Client: "client-2", Seq: 5, Counter: 9},
	}}
	payload := ftmgr.EncodeCheckpoint(ftmgr.Checkpoint{From: "r1", Data: durable.EncodeSnapshot(snap)})
	once := testing.AllocsPerRun(100, func() {
		msg, _ := ftmgr.DecodeMessage(payload)
		_, _ = durable.DecodeSnapshot(msg.(ftmgr.Checkpoint).Data)
	})

	for _, tc := range []struct {
		name    string
		durable bool
	}{{"durable backup", true}, {"in-memory backup", false}} {
		t.Run(tc.name, func(t *testing.T) {
			member, err := gcs.Dial(h.Addr(), "r2")
			if err != nil {
				t.Fatal(err)
			}
			defer member.Close()
			budget, err := resource.NewBudget("memory", 1000)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ServiceConfig{Service: "timeofday"}
			mgr, err := ftmgr.NewManager(ftmgr.Config{ReplicaName: "r2", Group: cfg.Group(), Monitor: budget, Member: member})
			if err != nil {
				t.Fatal(err)
			}
			r := &Replica{name: "r2", cfg: cfg, state: &clockState{}, member: member, mgr: mgr}
			if tc.durable {
				store, _, err := durable.Open(durable.Config{Dir: t.TempDir(), Replica: "r2"})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				r.store, r.state.store = store, store
			}

			d := gcs.Delivery{Kind: gcs.DeliverData, Group: cfg.Group(), Sender: "r1", Payload: payload}
			r.deliver(d)
			if got := r.state.Counter(); got != 9 {
				t.Fatalf("counter after the checkpoint = %d, want 9", got)
			}
			// Every later delivery repeats a snapshot the state already holds, so
			// it is decoded and merged but neither advances nor persists anything.
			got := testing.AllocsPerRun(100, func() { r.deliver(d) })
			const want = 6 // Checkpoint: From, Data, the boxed message; snapshot: the table, two client ids
			if once != want || got != want {
				t.Fatalf("one Checkpoint delivery allocates %.0f times, one decode of it %.0f; want %d for both", got, once, want)
			}
		})
	}
}
