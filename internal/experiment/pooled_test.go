package experiment

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mead/internal/ftmgr"
	"mead/internal/namesvc"
	"mead/internal/orb"
)

// pooledRef binds one reference on a connection-pool ORB to the IOR the
// naming service holds for the first replica launched, the primary.
func pooledRef(t *testing.T, d *Deployment) *orb.ObjectRef {
	t.Helper()
	names := namesvc.NewClient(d.NamesAddr())
	defer names.Close()
	ior, err := names.Resolve(d.Service() + "/" + d.Replicas()[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	c := orb.NewClient(orb.WithConnectionPool())
	t.Cleanup(func() { _ = c.Close() })
	return c.Object(ior)
}

// TestPooledCallersInFlightAcrossMigration: two callers share one reference
// on a pooled (multiplexed) client, so the primary has two requests in
// flight on one connection when it crosses the migrate threshold. Every
// invocation completes, each in-flight one is forwarded once — the server
// executed it, then replaced its reply — and the replicas' request counts
// add up to exactly that.
func TestPooledCallersInFlightAcrossMigration(t *testing.T) {
	sc := compressed(ftmgr.LocationForward)
	sc.InjectFault = false
	d, err := NewDeployment(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	primary := d.Replicas()[0]
	ref := pooledRef(t, d)

	const callers, each = 2, 400
	var (
		wg   sync.WaitGroup
		done atomic.Int64
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < each; n++ {
				if err := ref.Invoke("time_of_day", nil, nil); err != nil {
					t.Errorf("invocation failed: %v", err)
					return
				}
				done.Add(1)
			}
		}()
	}
	// Exhaust the primary's budget mid-run: its next reply crosses both
	// thresholds and starts the hand-off with the other caller's request
	// still outstanding.
	for done.Load() < callers*each/4 {
		time.Sleep(50 * time.Microsecond)
	}
	primary.Budget().Consume(primary.Budget().Capacity())

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatalf("callers stuck after %d of %d invocations: a forwarded request was never answered",
			done.Load(), callers*each)
	}
	if t.Failed() {
		return
	}
	forwards := ref.Stats().Forwards
	if forwards < 1 || forwards > callers {
		t.Fatalf("forwards = %d, want one per invocation in flight at the migration (1..%d)", forwards, callers)
	}
	if served, want := d.ServedRequests(), uint64(callers*each+forwards); served != want {
		t.Fatalf("ServedRequests = %d, want %d (%d invocations + %d forwarded after executing)",
			served, want, callers*each, forwards)
	}
}
