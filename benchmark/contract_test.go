package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestStatsRules(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		med, q1, q3    float64
		tailP, tailVal float64
	}{
		// Quartiles as Python's statistics.quantiles(xs, n=4) gives them.
		{xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, med: 5.5, q1: 2.75, q3: 8.25},
		{xs: []float64{4, 1, 3, 2}, med: 2.5, q1: 1.25, q3: 3.75},
		{xs: []float64{0.3, 0.1, 0.2}, med: 0.2, q1: 0.1, q3: 0.3},
		{xs: []float64{2, 7}, med: 4.5, q1: 0.75, q3: 8.25},
		{xs: []float64{5, 1, 9, 3, 7}, med: 5, q1: 2, q3: 8},
		{xs: []float64{5}, med: 5, q1: 5, q3: 5},
		{xs: nil},
		// Tails: p90 needs 100 samples, p99 needs 1000.
		{xs: seq(99), med: 50, q1: 25, q3: 75},
		{xs: seq(100), med: 50.5, q1: 25.25, q3: 75.75, tailP: 90, tailVal: 90},
		{xs: seq(1000), med: 500.5, q1: 250.25, q3: 750.75, tailP: 99, tailVal: 990},
	} {
		if got := median(tc.xs); !near(got, tc.med) {
			t.Errorf("median(%d values) = %g, want %g", len(tc.xs), got, tc.med)
		}
		if q1, q3 := quartiles(tc.xs); !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%d values) = %g, %g; want %g, %g", len(tc.xs), q1, q3, tc.q1, tc.q3)
		}
		p, v, ok := tail(tc.xs)
		if ok != (tc.tailP != 0) || p != tc.tailP || v != tc.tailVal {
			t.Errorf("tail(%d values) = p%g %g %v; want p%g %g", len(tc.xs), p, v, ok, tc.tailP, tc.tailVal)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	l := newSpanLog()
	at := func(s float64) time.Time { return l.epoch.Add(time.Duration(s * float64(time.Second))) }
	root := l.add(0, "t", "mine", at(0), at(10))
	l.add(root, "t", "a", at(1), at(3))
	l.add(root, "t", "b", at(2), at(5)) // overlaps a
	l.add(root, "t", "c", at(7), at(8))
	l.add(root, "t", "d", at(9), at(12)) // runs past the parent
	spans := l.withSelfTimes()
	if !near(spans[0].SelfS, 10-4-1-1) {
		t.Errorf("root self time %g, want 4", spans[0].SelfS)
	}
	if !near(spans[1].SelfS, 2) {
		t.Errorf("leaf self time %g, want its duration 2", spans[1].SelfS)
	}
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesTheProgram checks BENCHMARK.json against the
// limits it must keep and against the metrics the program declares.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	e2e := endToEndMetrics()
	if len(f.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(f.EndToEnd), len(e2e))
	}
	var setupBound, maxBound float64
	for i, m := range f.EndToEnd {
		checkName(m.Name)
		if m.metricDef != e2e[i] {
			t.Errorf("end-to-end metric %d is %+v, the program's is %+v", i, m.metricDef, e2e[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}

	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	pl := perLayerMetrics()
	if len(f.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(f.PerLayer), len(pl))
	}
	for i, m := range f.PerLayer {
		checkName(m.Name)
		if m != pl[i] {
			t.Errorf("per-layer metric %d is %+v, the program's is %+v", i, m, pl[i])
		}
	}
	for _, m := range append(e2e, pl...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}

	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", f.Paths, f.RunSeconds)
	}
	if len(f.Command) < 2 || !strings.HasPrefix(f.Command[1], "benchmark/") {
		t.Errorf("command %v does not run a file under benchmark/", f.Command)
	}
}

// TestEveryDeclaredMetricIsEmitted runs the whole benchmark at 1/20 of
// the workload sizes with a 1 s budget per phase.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	cfg := defaultConfig()
	cfg.size = 0.05
	cfg.budget = time.Second
	rep, err := runAll(cfg, newSpanLog(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	line := rep.resultLine()
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Errorf("result line: correct %v, %d of %d failed", line.Correct, line.Failed, line.Attempted)
	}
	for _, w := range workloads {
		for _, set := range []struct {
			defs []metricDef
			kind string
		}{{endToEndMetrics(), "end-to-end"}, {perLayerMetrics(), "per-layer"}} {
			for _, d := range set.defs {
				v, ok := line.Metrics[w.name+"/"+d.Name]
				if !ok {
					t.Errorf("%s: %s metric %s not emitted", w.name, set.kind, d.Name)
				} else if v.Unit != d.Unit {
					t.Errorf("%s: %s in %q, declared %q", w.name, d.Name, v.Unit, d.Unit)
				}
			}
		}
	}
	for _, d := range endToEndMetrics() {
		if v := line.Metrics["chess_deep/"+d.Name].Value; v <= 0 {
			t.Errorf("chess_deep: end-to-end metric %s reads %g", d.Name, v)
		}
	}
}
