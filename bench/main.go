// Command meadbench is the repository's benchmark: four closed-loop workloads
// against an in-process MEAD deployment, reported as end-to-end metrics
// (untraced run) and per-layer metrics (traced run). See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	selfcheck bool
	// warmup invocations end a set-up and setups set-ups are timed per
	// untraced run: setupWarmup and setupsPerRun, but for the smoke test.
	warmup   int
	setups   int
	scratch  string
	traceOut string
	spec     string
}

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// report is what one run of one workload produces.
type report struct {
	metrics    []metric
	attempted  int
	failed     int
	violations []string
}

func (r *report) add(name, unit string, value float64, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: value, Note: note})
}

func (r *report) violate(format string, args ...interface{}) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if os.Getenv(referenceEnv) != "" {
		if err := referenceMain(); err != nil {
			fmt.Fprintln(os.Stderr, "meadbench reference process:", err)
			os.Exit(1)
		}
		return
	}
	o := options{setups: setupsPerRun}
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, one child process each)")
	flag.Int64Var(&o.seed, "seed", 2004, "seed for Scenario.Seed and FaultConfig.Seed (7 is the second, claim-verification seed)")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced suite twice and compare against the bounds in BENCHMARK.json")
	flag.StringVar(&o.scratch, "scratch", ".bench_build/state", "directory for durable state (created)")
	flag.StringVar(&o.traceOut, "traceout", "bench/out/trace.jsonl", "span file the traced run writes")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark contract read by -selfcheck")
	flag.Parse()
	if flag.NArg() != 0 || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "meadbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case o.selfcheck:
		err = selfcheck(o)
	case o.workload == "":
		_, err = runSuite(o, os.Stdout)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "meadbench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result line.
func runOne(o options) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return err
	}
	// One CPU and one P, whatever the host has: the host's cores change
	// speed independently of one another (see reference.go), so a run that
	// spreads over two of them mixes two speeds that no single reference
	// describes; run-to-run spreads of every latency tripled with two Ps.
	cpu, ok := pinned()
	if !ok {
		// Returns only if the host refuses: the run then shares the reference
		// process's CPU only by chance, and says so.
		err := pinAndReexec()
		fmt.Printf("meadbench: not bound to one CPU (%v): the reference process may measure another core's speed\n", err)
		cpu = "any"
	}
	runtime.GOMAXPROCS(1)
	fmt.Printf("meadbench: in-process experiment.Deployment (GCS hub, naming service, recovery manager, %d warm-passive replicas) over loopback TCP; wire latency is not measured\n", replicas)
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d callers=%d (closed loop) gomaxprocs=%d cpu=%s go=%s\n",
		w.name, o.seed, o.seconds, o.trace, w.callers(), runtime.GOMAXPROCS(0), cpu, runtime.Version())
	fmt.Printf("why: %s\n", w.why)

	var rep *report
	var err error
	if o.trace == 1 {
		rep, err = runTraced(w, o)
	} else {
		rep, err = runUntraced(w, o)
	}
	if err != nil {
		return err
	}
	line := resultLine{
		Correct:   len(rep.violations) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]resultValue, len(rep.metrics)),
	}
	for _, m := range rep.metrics {
		if _, dup := line.Metrics[m.Name]; dup {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		line.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
		fmt.Printf("%-42s %16s %-6s %s\n", m.Name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit, m.Note)
	}
	for _, v := range rep.violations {
		fmt.Printf("VIOLATION: %s\n", v)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return fmt.Errorf("%s: %d correctness violations", w.name, len(rep.violations))
	}
	return nil
}

// runSuite runs every workload in a child process of its own, so that the
// process-wide metrics (peak RSS, allocation counts) of one workload do not
// carry into the next, and returns each workload's result line.
func runSuite(o options, out io.Writer) (map[string]resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := make(map[string]resultLine)
	for _, name := range workloadNames() {
		cmd := exec.Command(self,
			"-workload", name,
			"-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds),
			"-trace", strconv.Itoa(o.trace),
			"-scratch", o.scratch,
			"-traceout", o.traceOut)
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(out, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			return nil, fmt.Errorf("workload %s: result line: %w", name, err)
		}
		results[name] = line
		fmt.Fprintln(out)
	}
	return results, nil
}

// benchSpec is the part of BENCHMARK.json that -selfcheck and the smoke test
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// selfcheck runs the untraced suite twice on this binary and compares the two
// values of every end-to-end metric on every workload with the metric's bound.
// Two runs that differ by more than the bound cannot tell a later change from
// noise, so such a pair is printed as unresolved and fails the check.
func selfcheck(o options) error {
	spec, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	o.trace = 0
	var runs [2]map[string]resultLine
	for i := range runs {
		fmt.Printf("selfcheck: suite run %d of 2, seed %d\n", i+1, o.seed)
		if runs[i], err = runSuite(o, io.Discard); err != nil {
			return err
		}
	}
	unresolved := 0
	fmt.Printf("%-24s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	for _, name := range workloadNames() {
		for _, m := range spec.EndToEnd {
			a, okA := runs[0][name].Metrics[m.Name]
			b, okB := runs[1][name].Metrics[m.Name]
			if !okA || !okB {
				return fmt.Errorf("workload %s did not report %s", name, m.Name)
			}
			diff := 0.0
			if mid := (a.Value + b.Value) / 2; mid != 0 {
				diff = (b.Value - a.Value) / mid
			}
			verdict := "within bound"
			if diff > m.Bound || -diff > m.Bound {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Printf("%-24s %-20s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", name, m.Name, a.Value, b.Value, 100*diff, 100*m.Bound, verdict)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("selfcheck: %d metric x workload pairs differ between two runs of the same binary by more than their bound", unresolved)
	}
	return nil
}
