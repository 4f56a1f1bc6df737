package replica_test

import (
	"testing"
	"time"

	"mead/internal/faultinject"
	"mead/internal/ftmgr"
	"mead/internal/replica"
)

func TestAdaptiveThresholdMigratesBeforeCrash(t *testing.T) {
	// With adaptive thresholds and a steady leak, the first replica must
	// migrate its client and rejuvenate rather than crash. (Full
	// multi-cycle adaptive runs, which need the Recovery Manager, are
	// covered in internal/experiment.)
	c := startCluster(t, ftmgr.MeadMessage, 3, func(cfg *replica.ServiceConfig) {
		cfg.InjectFault = true
		cfg.Fault = faultinject.Config{
			BufferBytes: 32 * 1024,
			Tick:        time.Millisecond,
			ChunkUnit:   16,
			Seed:        21,
		}
		cfg.AdaptiveLeadTime = 5 * time.Millisecond
	})
	s := c.client(ftmgr.MeadMessage)
	for i := 0; i < 200; i++ {
		out := s.Invoke()
		if out.Err != nil {
			t.Fatalf("invocation %d: %v", i, out.Err)
		}
		if len(out.Exceptions) != 0 {
			t.Fatalf("adaptive run leaked exceptions at %d: %v", i, out.Exceptions)
		}
		if out.Replica != "r1" {
			break // handed off
		}
		time.Sleep(200 * time.Microsecond)
	}
	select {
	case <-c.reps[0].Done():
		if c.reps[0].ExitReason() != replica.ExitRejuvenated {
			t.Fatalf("exit reason = %v, want rejuvenated under adaptive threshold", c.reps[0].ExitReason())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first replica never exited")
	}
}

func TestMultiObjectReplicaServesAllKeys(t *testing.T) {
	c := startCluster(t, ftmgr.LocationForward, 2, func(cfg *replica.ServiceConfig) {
		cfg.Objects = 8
	})
	// Every announced object forwards correctly during migration: the
	// manager's IOR table holds one entry per object per replica.
	for _, r := range c.reps {
		anns := r.Manager().Replicas()
		for _, a := range anns {
			if len(a.IORs) != 8 {
				t.Fatalf("replica %s announced %d IORs, want 8", a.Name, len(a.IORs))
			}
		}
	}
	s := c.client(ftmgr.LocationForward)
	if out := s.Invoke(); out.Err != nil {
		t.Fatal(out.Err)
	}
	// Migration with multiple objects still masks the hand-off.
	c.reps[0].Budget().Consume(c.reps[0].Budget().Capacity())
	out := s.Invoke()
	if out.Err != nil || len(out.Exceptions) != 0 || out.Replica != "r2" {
		t.Fatalf("outcome = %+v", out)
	}
}
