// Command mead-server runs one warm-passive replica of the time-of-day
// service as its own process: it joins the group, registers with the Naming
// Service, and serves until it crashes (injected fault), rejuvenates
// (proactive migration complete), or is interrupted.
//
// A trivial supervisor loop around it recreates the paper's deployment:
//
//	mead-hub &
//	mead-names &
//	for r in r1 r2 r3; do
//	  (while mead-server -name $r -scheme mead-message -fault; do :; done) &
//	done
//	mead-client -scheme mead-message -n 10000
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mead"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mead-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mead-server", flag.ContinueOnError)
	var (
		name      = fs.String("name", "r1", "replica name (unique in the group)")
		hubAddr   = fs.String("hub", "127.0.0.1:4803", "group-communication hub address")
		namesAddr = fs.String("names", "127.0.0.1:4804", "naming service address")
		service   = fs.String("service", "timeofday", "service name")
		schemeStr = fs.String("scheme", "mead-message", "recovery scheme")
		launch    = fs.Float64("launch-threshold", 0.6, "proactive notice threshold")
		migrate   = fs.Float64("migrate-threshold", 0.8, "client-migration threshold")
		fault     = fs.Bool("fault", false, "inject the memory-leak fault")
		tick      = fs.Duration("fault-tick", 150*time.Millisecond, "leak interval")
		chunkUnit = fs.Int64("fault-chunk", 32, "bytes per Weibull unit")
		seed      = fs.Int64("seed", time.Now().UnixNano(), "fault seed")
		metrics   = fs.String("metrics", "", "serve metrics (/metrics) and the recovery trace (/trace) on this address, e.g. 127.0.0.1:9090")
		stateDir  = fs.String("statedir", "", "durable-state directory: persist an op log and incremental checkpoints under <statedir>/<name>, and cold-restart from them (plus the recovery handshake) after a crash")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme, err := mead.ParseScheme(*schemeStr)
	if err != nil {
		return err
	}

	tel := mead.NewTelemetry(scheme.String())
	cfg := mead.ServiceConfig{
		Service:          *service,
		HubAddr:          *hubAddr,
		NamesAddr:        *namesAddr,
		Scheme:           scheme,
		LaunchThreshold:  *launch,
		MigrateThreshold: *migrate,
		InjectFault:      *fault,
		Fault: mead.FaultConfig{
			Tick:      *tick,
			ChunkUnit: *chunkUnit,
			Seed:      *seed,
		},
		Logf: func(format string, a ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
		Telemetry: tel,
		StateDir:  *stateDir,
	}
	r, err := mead.NewReplica(*name, cfg)
	if err != nil {
		return err
	}
	if *metrics != "" {
		ms, err := mead.ServeMetrics(*metrics, tel)
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Printf("mead-server: metrics on http://%s/metrics\n", ms.Addr())
	}
	// Catch signals before the replica is reachable: a supervisor (or the
	// test) may send one the moment the serving line below appears.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	if err := r.Start(); err != nil {
		return err
	}
	fmt.Printf("mead-server: replica %s serving %s at %s\n", *name, *service, r.Addr())

	select {
	case <-sig:
		r.Stop()
		fmt.Println("mead-server: stopped")
	case <-r.Done():
		fmt.Printf("mead-server: replica %s exited (%v) after %d requests\n",
			*name, r.ExitReason(), r.Requests())
	}
	return nil
}
