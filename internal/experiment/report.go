package experiment

import (
	"fmt"
	"strings"
	"time"

	"mead/internal/ftmgr"
	"mead/internal/stats"
)

// MeanSteadyRTT is the mean undisturbed round-trip time, read from the
// telemetry steady-state histogram (every client, fail-over spikes and each
// client's initial naming resolution excluded).
func (r *Result) MeanSteadyRTT() time.Duration { return r.SteadyHist.Mean() }

// MeanFailoverTime is the mean RTT of the invocations that performed a
// fail-over — detection plus recovery, the paper's fail-over time — read from
// the telemetry fail-over histogram (0 when there was none).
func (r *Result) MeanFailoverTime() time.Duration { return r.FailoverHist.Mean() }

// Series renders the run as a labelled RTT series (Figures 3 and 4).
func (r *Result) Series() stats.Series {
	return stats.Series{Label: r.Scheme.String(), Values: r.RTTs}
}

// Jitter computes the 3-sigma outlier report of Section 5.2.5.
func (r *Result) Jitter() stats.OutlierReport {
	return stats.Outliers(r.RTTs)
}

// Table1Row is one row of the paper's Table 1 ("Overhead and fail-over
// times").
type Table1Row struct {
	Scheme ftmgr.Scheme
	// MeanRTTMicros is the mean undisturbed RTT.
	MeanRTTMicros float64
	// P50Micros, P99Micros and MaxMicros summarize the steady-state RTT
	// distribution from the telemetry histogram (zero when the run was
	// built without telemetry).
	P50Micros float64
	P99Micros float64
	MaxMicros float64
	// IncreaseRTTPct is the RTT overhead over the reactive-without-cache
	// baseline.
	IncreaseRTTPct float64
	// ClientFailurePct is client-visible failures per server failure.
	ClientFailurePct float64
	// FailoverMillis is the mean fail-over time.
	FailoverMillis float64
	// FailoverChangePct is the change versus the baseline fail-over time.
	FailoverChangePct float64
	// Raw counters for the Section 5.2.1 breakdown.
	ServerFailures int
	ClientFailures int
	Exceptions     map[string]int
}

// Table1 is the full reproduction of the paper's Table 1.
type Table1 struct {
	Rows []Table1Row
}

// RunTable1 executes the template scenario once per scheme and derives the
// Table 1 rows. The returned map holds the raw per-scheme results (the
// Figure 3/4 series come from the same runs).
func RunTable1(template Scenario) (*Table1, map[ftmgr.Scheme]*Result, error) {
	results := make(map[ftmgr.Scheme]*Result, 5)
	for _, scheme := range ftmgr.Schemes() {
		sc := template
		sc.Scheme = scheme
		if sc.Logf != nil {
			sc.Logf("experiment: running %v", scheme)
		}
		res, err := Run(sc)
		if err != nil {
			return nil, nil, fmt.Errorf("experiment: scheme %v: %w", scheme, err)
		}
		results[scheme] = res
	}
	return BuildTable1(results), results, nil
}

// BuildTable1 derives Table 1 from per-scheme results.
func BuildTable1(results map[ftmgr.Scheme]*Result) *Table1 {
	baseline := results[ftmgr.ReactiveNoCache]
	var baseRTT, baseFailover float64
	if baseline != nil {
		baseRTT = float64(baseline.MeanSteadyRTT())
		baseFailover = float64(baseline.MeanFailoverTime())
	}
	t := &Table1{}
	for _, scheme := range ftmgr.Schemes() {
		res := results[scheme]
		if res == nil {
			continue
		}
		row := Table1Row{
			Scheme:         scheme,
			MeanRTTMicros:  float64(res.MeanSteadyRTT()) / float64(time.Microsecond),
			FailoverMillis: float64(res.MeanFailoverTime()) / float64(time.Millisecond),
			ServerFailures: res.ServerFailures,
			ClientFailures: res.ClientFailures(),
			Exceptions:     res.Exceptions,
		}
		if res.SteadyHist.Count > 0 {
			row.P50Micros = float64(res.SteadyHist.P50()) / float64(time.Microsecond)
			row.P99Micros = float64(res.SteadyHist.P99()) / float64(time.Microsecond)
			row.MaxMicros = float64(res.SteadyHist.Max) / float64(time.Microsecond)
		}
		row.ClientFailurePct = res.ClientFailurePct()
		if baseRTT > 0 {
			row.IncreaseRTTPct = 100 * (float64(res.MeanSteadyRTT()) - baseRTT) / baseRTT
		}
		if baseFailover > 0 && res.MeanFailoverTime() > 0 {
			row.FailoverChangePct = 100 * (float64(res.MeanFailoverTime()) - baseFailover) / baseFailover
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Format renders the table in the paper's layout, extended with the
// steady-state distribution columns (p50/p99/max) read from the telemetry
// histograms.
func (t *Table1) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %12s %10s %10s %10s %12s %14s %14s %12s\n",
		"Recovery Strategy", "RTT (us)", "p50 (us)", "p99 (us)", "max (us)",
		"Incr RTT(%)", "ClientFail(%)", "Failover(ms)", "Change(%)")
	sb.WriteString(strings.Repeat("-", 124))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		change := fmt.Sprintf("%+.1f", row.FailoverChangePct)
		incr := fmt.Sprintf("%+.1f", row.IncreaseRTTPct)
		if row.Scheme == ftmgr.ReactiveNoCache {
			change = "baseline"
			incr = "baseline"
		}
		fmt.Fprintf(&sb, "%-22s %12.1f %10.1f %10.1f %10.1f %12s %14.0f %14.3f %12s\n",
			row.Scheme.String(), row.MeanRTTMicros,
			row.P50Micros, row.P99Micros, row.MaxMicros, incr,
			row.ClientFailurePct, row.FailoverMillis, change)
	}
	return sb.String()
}

// FailureBreakdown renders the Section 5.2.1 per-exception accounting.
func (t *Table1) FailureBreakdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %14s %14s %14s %12s\n",
		"Recovery Strategy", "ServerFail", "COMM_FAILURE", "TRANSIENT", "Client/Server")
	sb.WriteString(strings.Repeat("-", 82))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		fmt.Fprintf(&sb, "%-22s %14d %14d %14d %11.0f%%\n",
			row.Scheme.String(), row.ServerFailures,
			row.Exceptions["COMM_FAILURE"], row.Exceptions["TRANSIENT"],
			row.ClientFailurePct)
	}
	return sb.String()
}

// SweepPoint is one measurement of Figure 5 (bandwidth versus rejuvenation
// threshold).
type SweepPoint struct {
	Scheme         ftmgr.Scheme
	Threshold      float64
	BandwidthBps   float64
	ServerFailures int
}

// RunThresholdSweep reproduces Figure 5: it varies the rejuvenation
// threshold for the two proactive schemes and measures the server group's
// GCS bandwidth.
func RunThresholdSweep(template Scenario, thresholds []float64, schemes []ftmgr.Scheme) ([]SweepPoint, error) {
	if len(schemes) == 0 {
		schemes = []ftmgr.Scheme{ftmgr.LocationForward, ftmgr.MeadMessage}
	}
	var points []SweepPoint
	for _, scheme := range schemes {
		for _, th := range thresholds {
			sc := template
			sc.Scheme = scheme
			sc.Threshold = th
			sc.LaunchThreshold = 0.75 * th
			if sc.Logf != nil {
				sc.Logf("experiment: sweep %v at threshold %.0f%%", scheme, th*100)
			}
			res, err := Run(sc)
			if err != nil {
				return nil, fmt.Errorf("experiment: sweep %v@%.2f: %w", scheme, th, err)
			}
			points = append(points, SweepPoint{
				Scheme:         scheme,
				Threshold:      th,
				BandwidthBps:   res.BandwidthBytesPerSec(),
				ServerFailures: res.ServerFailures,
			})
		}
	}
	return points, nil
}

// FormatSweep renders Figure 5's data as a table.
func FormatSweep(points []SweepPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %12s %18s %12s\n", "Scheme", "Threshold", "Bandwidth (B/s)", "Restarts")
	sb.WriteString(strings.Repeat("-", 64))
	sb.WriteByte('\n')
	for _, p := range points {
		fmt.Fprintf(&sb, "%-18s %11.0f%% %18.0f %12d\n",
			p.Scheme.String(), p.Threshold*100, p.BandwidthBps, p.ServerFailures)
	}
	return sb.String()
}

// RunFaultFree runs the template without fault injection — the jitter
// baseline of Section 5.2.5.
func RunFaultFree(template Scenario) (*Result, error) {
	sc := template
	sc.Scheme = ftmgr.ReactiveNoCache
	sc.InjectFault = false
	return Run(sc)
}
