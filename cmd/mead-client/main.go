// Command mead-client drives the paper's workload against a running
// deployment: paced time-of-day invocations under a chosen recovery
// strategy, with a summary of RTTs, exceptions, and fail-overs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mead"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mead-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mead-client", flag.ContinueOnError)
	var (
		hubAddr   = fs.String("hub", "127.0.0.1:4803", "group-communication hub address")
		namesAddr = fs.String("names", "127.0.0.1:4804", "naming service address")
		service   = fs.String("service", "timeofday", "service name")
		schemeStr = fs.String("scheme", "mead-message", "recovery scheme")
		n         = fs.Int("n", 10000, "invocations")
		period    = fs.Duration("period", time.Millisecond, "request period")
		csvPath   = fs.String("csv", "", "write per-invocation RTTs to this CSV file")
		pool      = fs.Bool("pool", false, "share one multiplexed connection per replica (reactive and location-forward schemes only)")
		metrics   = fs.String("metrics", "", "serve metrics (/metrics) and the recovery trace (/trace) on this address, e.g. 127.0.0.1:9091")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme, err := mead.ParseScheme(*schemeStr)
	if err != nil {
		return err
	}
	tel := mead.NewTelemetry(scheme.String())
	strat, err := mead.NewClient(mead.ClientConfig{
		Scheme:     scheme,
		Service:    *service,
		NamesAddr:  *namesAddr,
		HubAddr:    *hubAddr,
		SharedPool: *pool,
		Telemetry:  tel,
	})
	if err != nil {
		return err
	}
	defer strat.Close()
	if *metrics != "" {
		ms, err := mead.ServeMetrics(*metrics, tel)
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Printf("mead-client: metrics on http://%s/metrics\n", ms.Addr())
	}

	rtts := make([]time.Duration, 0, *n)
	exceptions := make(map[string]int)
	failovers := 0
	failed := 0
	start := time.Now()
	for i := 0; i < *n; i++ {
		next := start.Add(time.Duration(i) * *period)
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		out := strat.Invoke()
		rtts = append(rtts, out.RTT)
		if out.Failover {
			failovers++
		}
		for _, e := range out.Exceptions {
			exceptions[e]++
		}
		if out.Err != nil {
			failed++
		}
	}

	sum := mead.Summarize(rtts)
	fmt.Printf("mead-client: %d invocations under %v in %v\n", *n, scheme, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  rtt: mean=%v p50=%v p99=%v max=%v\n", sum.Mean, sum.P50, sum.P99, sum.Max)
	fmt.Printf("  failovers=%d exceptions=%v failed=%d\n", failovers, exceptions, failed)
	outliers := mead.Outliers(rtts)
	fmt.Printf("  jitter: 3-sigma outliers %.2f%%, max spike %v\n", 100*outliers.Fraction, outliers.MaxSpike)

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		s := mead.Series{Label: scheme.String(), Values: rtts}
		return s.WriteCSV(f)
	}
	return nil
}
