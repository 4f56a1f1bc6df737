package mead_test

import (
	"fmt"
	"sync"
	"time"

	"mead"
)

// ExampleRun executes a small faulty scenario under the MEAD proactive
// fail-over scheme and shows that no failure reaches the client.
func ExampleRun() {
	res, err := mead.Run(mead.Scenario{
		Scheme:      mead.MeadMessage,
		Invocations: 200,
		Period:      100 * time.Microsecond,
		InjectFault: true,
		Fault: mead.FaultConfig{
			Tick:      time.Millisecond,
			ChunkUnit: 16,
			Seed:      1,
		},
		RestartDelay:    20 * time.Millisecond,
		CheckpointEvery: 10 * time.Millisecond,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("invocations: %d\n", len(res.RTTs))
	fmt.Printf("exceptions seen by the application: %d\n", res.ClientFailures())
	// Output:
	// invocations: 200
	// exceptions seen by the application: 0
}

// ExampleNewDeployment boots a deployment and performs one invocation
// through a client strategy.
func ExampleNewDeployment() {
	dep, err := mead.NewDeployment(mead.Scenario{Scheme: mead.LocationForward})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer dep.Close()

	strat, err := dep.NewClient()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer strat.Close()

	out := strat.Invoke()
	fmt.Printf("served by %s, error: %v\n", out.Replica, out.Err)
	// Output:
	// served by r1, error: <nil>
}

// ExampleParseScheme round-trips a scheme name.
func ExampleParseScheme() {
	s, _ := mead.ParseScheme("mead-message")
	fmt.Println(s, s.Proactive())
	// Output:
	// mead-message true
}

// ExampleNewRecoveryManager assembles the paper's testbed by hand from the
// parts NewDeployment wires together: the group-communication hub, the
// Naming Service, three replicas, the Recovery Manager and a client. Every
// replica leaks memory from its first request on. The primary hands its
// client off with a LOCATION_FORWARD before the leak exhausts it, rejuvenates
// once the client has left, and the Recovery Manager relaunches it.
func ExampleNewRecoveryManager() {
	hub := mead.NewHub()
	if err := hub.Start("127.0.0.1:0"); err != nil {
		fmt.Println("error:", err)
		return
	}
	defer hub.Close()
	names := mead.NewNamingServer()
	if err := names.Start("127.0.0.1:0"); err != nil {
		fmt.Println("error:", err)
		return
	}
	defer names.Close()

	cfg := mead.ServiceConfig{
		Service:          "timeofday",
		HubAddr:          hub.Addr(),
		NamesAddr:        names.Addr(),
		Scheme:           mead.LocationForward,
		LaunchThreshold:  0.60,
		MigrateThreshold: 0.80,
		InjectFault:      true,
		Fault:            mead.FaultConfig{Tick: 5 * time.Millisecond, ChunkUnit: 16, Seed: 7},
		CheckpointEvery:  10 * time.Millisecond,
	}
	var (
		mu      sync.Mutex
		running []*mead.Replica
	)
	launch := func(name string) error {
		r, err := mead.NewReplica(name, cfg)
		if err == nil {
			err = r.Start()
		}
		if err != nil {
			return err
		}
		mu.Lock()
		running = append(running, r)
		mu.Unlock()
		return nil
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range running {
			r.Stop()
		}
	}()
	// Each replica's join is waited for before the next launches: the group's
	// view then lists r1, r2, r3 in that order, a replica hands its clients
	// off to the next one in the view, and the Recovery Manager, which
	// relaunches any replica missing from a view it sees, starts with all three.
	replicas := []string{"r1", "r2", "r3"}
	for i, name := range replicas {
		if err := launch(name); err != nil {
			fmt.Println("error:", err)
			return
		}
		for len(hub.Members(cfg.Group())) <= i {
			time.Sleep(time.Millisecond)
		}
	}

	relaunched := make(chan string, 1)
	member, err := mead.DialGroup(hub.Addr(), "recovery-manager")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rm, err := mead.NewRecoveryManager(mead.RecoveryConfig{
		Member:         member,
		Group:          cfg.Group(),
		ReplicaNames:   replicas,
		RestartDelay:   40 * time.Millisecond,
		ProactiveDelay: 10 * time.Millisecond,
		Factory: mead.FactoryFunc(func(name string) error {
			select {
			case relaunched <- name:
			default:
			}
			return launch(name)
		}),
	})
	if err != nil {
		_ = member.Close()
		fmt.Println("error:", err)
		return
	}
	if err := rm.Start(); err != nil {
		fmt.Println("error:", err)
		return
	}
	defer rm.Stop()

	strat, err := mead.NewClient(mead.ClientConfig{
		Scheme:    mead.LocationForward,
		Service:   cfg.Service,
		NamesAddr: names.Addr(),
		HubAddr:   hub.Addr(),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer strat.Close()

	// Invoke until the first hand-off. The client ORB follows the
	// LOCATION_FORWARD itself, so the application sees a normal reply.
	from, exceptions := "", 0
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		out := strat.Invoke()
		if out.Err != nil {
			fmt.Println("error:", out.Err)
			return
		}
		exceptions += len(out.Exceptions)
		if out.Failover {
			fmt.Printf("%s handed its client off to %s; exceptions at the application: %d\n",
				from, out.Replica, exceptions)
			break
		}
		from = out.Replica
	}
	select {
	case name := <-relaunched:
		fmt.Println("the Recovery Manager relaunched", name)
	case <-time.After(20 * time.Second):
		fmt.Println("no relaunch")
	}
	// Output:
	// r1 handed its client off to r2; exceptions at the application: 0
	// the Recovery Manager relaunched r1
}
