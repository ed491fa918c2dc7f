// Command benchmark measures fim.Mine end to end and layer by layer on
// four synthetic workloads, checking every mined result against a
// reference answer. See README.md for the workloads, the metrics and
// the output schema.
//
// Usage:
//
//	go -C benchmark run . [-workload all|<name>] [-seed n] [-seconds s] [-trace -1|0|1] [-out file] [-trace-out file]
//
// The timed phase (-trace 0) reports the end-to-end metrics, the traced
// phase (-trace 1) the per-layer ones; -trace -1 runs both. The last
// line of standard output is one JSON object: correct, attempted,
// failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	fim "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run.
type config struct {
	workloads []workload
	cells     []cell
	seed      int64
	// budget is the measuring time of each phase on each workload.
	budget time.Duration
	timed  bool
	traced bool
	// size scales every workload's row count (1 = the declared size);
	// seed-0 answers are only asserted at size 1.
	size float64
	// slice is the running time each timed sweep grants every job, and
	// the length of one sample.
	slice time.Duration
}

// workers is the team size of every mine but the single-worker one the
// speedup metric needs.
var workers = min(2, runtime.NumCPU())

func defaultConfig() config {
	return config{
		workloads: workloads,
		cells:     cells,
		budget:    30 * time.Second,
		timed:     true,
		traced:    true,
		size:      1,
		slice:     100 * time.Millisecond,
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	fs.Int64Var(&cfg.seed, "seed", 0, "input seed; 0 is the canonical input")
	seconds := fs.Float64("seconds", cfg.budget.Seconds(), "measuring time of each phase per workload, in seconds")
	trace := fs.Int("trace", -1, "0: timed phase (end-to-end metrics); 1: traced phase (per-layer metrics); -1: both")
	out := fs.String("out", "", "write the full report as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the traced phase's spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	cfg.budget = time.Duration(*seconds * float64(time.Second))
	cfg.timed, cfg.traced = *trace != 1, *trace != 0
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		cfg.workloads = []workload{w}
	}

	log := newSpanLog()
	rep, err := runAll(cfg, log, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printMetrics(stdout, rep)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *traceOut != "" && cfg.traced {
		if err := log.write(*traceOut); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.resultLine())
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// report is the full output of a run, as -out writes it.
type report struct {
	Schema     string           `json:"schema"`
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadReport `json:"workloads"`
}

type provenance struct {
	GitCommit  string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Workers    int     `json:"workers"`
	Seed       int64   `json:"seed"`
	BudgetS    float64 `json:"budget_s"`
	// Calibration is always the compiled-in kernel calibration: the
	// benchmark never loads the file FIM_CALIBRATION names, which is
	// recorded here only so a reader knows it was set.
	Calibration    string `json:"calibration"`
	FimCalibration string `json:"fim_calibration_env"`
}

type workloadReport struct {
	Name       string  `json:"name"`
	Dataset    string  `json:"dataset"`
	Rows       int     `json:"rows"`
	Support    float64 `json:"support"`
	MinSupport int     `json:"min_support"`
	Itemsets   int     `json:"itemsets"`
	MaxK       int     `json:"max_k"`
	Digest     string  `json:"digest"`
	Correct    bool    `json:"correct"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FailedFrac float64 `json:"failed_frac"`

	// SetupS and Cells hold wall times as measured; the end-to-end times
	// are their medians divided by HostFactor, the run's host reference
	// time over refNominal.
	SetupS     []float64              `json:"setup_samples_s,omitempty"`
	Cells      []cellTiming           `json:"cells,omitempty"`
	HostFactor float64                `json:"host_factor,omitempty"`
	EndToEnd   map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine folds the report into the one-line result. With several
// workloads, metric names are prefixed with "<workload>/".
func (r report) resultLine() resultLine {
	l := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range r.Workloads {
		l.Correct = l.Correct && w.Correct
		l.Attempted += w.Attempted
		l.Failed += w.Failed
		prefix := ""
		if len(r.Workloads) > 1 {
			prefix = w.Name + "/"
		}
		for _, ms := range []map[string]metricValue{w.EndToEnd, w.PerLayer} {
			for k, v := range ms {
				l.Metrics[prefix+k] = v
			}
		}
	}
	return l
}

func runAll(cfg config, log *spanLog, progress io.Writer) (report, error) {
	rep := report{Schema: "fim-benchmark/v1", Provenance: provenance{
		GitCommit:      gitCommit(),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		Workers:        workers,
		Seed:           cfg.seed,
		BudgetS:        cfg.budget.Seconds(),
		Calibration:    "compiled-in",
		FimCalibration: os.Getenv(fim.CalibrationEnv),
	}}
	for _, w := range cfg.workloads {
		start := time.Now()
		wr, err := runWorkload(cfg, w, log)
		fmt.Fprintf(progress, "benchmark: %s seed %d: %.1f s\n", w.name, cfg.seed, time.Since(start).Seconds())
		if err != nil {
			return rep, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// runWorkload generates the workload's input, parses it, computes the
// reference answer and runs the configured phases.
func runWorkload(cfg config, w workload, log *spanLog) (workloadReport, error) {
	wr := workloadReport{Name: w.name, Dataset: w.dataset, Support: w.support}
	text, err := w.generate(cfg.seed, cfg.size)
	if err != nil {
		return wr, err
	}
	db, err := fim.ReadFIMI(w.name, bytes.NewReader(text))
	if err != nil {
		return wr, fmt.Errorf("parse input: %w", err)
	}
	wr.Rows = len(db.Transactions)
	wr.MinSupport = db.AbsoluteSupport(w.support)

	in, err := reference(w, db)
	if err != nil {
		return wr, err
	}
	in.text = text
	wr.Itemsets, wr.MaxK, wr.Digest = in.refRes.Len(), in.refRes.MaxK, in.ref
	if cfg.seed == 0 && cfg.size == 1 && (wr.Itemsets != w.itemsets || wr.MaxK != w.maxK) {
		return wr, fmt.Errorf("seed-0 answer is %d itemsets, max size %d; want %d, %d",
			wr.Itemsets, wr.MaxK, w.itemsets, w.maxK)
	}

	var t tally
	if cfg.timed {
		tm := timedPhase(cfg, in, &t)
		wr.Cells, wr.SetupS, wr.HostFactor = tm.cells, tm.setup, tm.host
		wr.EndToEnd = map[string]metricValue{"setup_s": {median(wr.SetupS) / wr.HostFactor, "s"}}
		var alloc, peak float64
		for _, ct := range wr.Cells {
			wr.EndToEnd[ct.Cell+"_s"] = metricValue{ct.MedianS / wr.HostFactor, "s"}
			alloc += ct.AllocMB
			peak = max(peak, ct.PeakLiveMB)
		}
		wr.EndToEnd["alloc_mb"] = metricValue{alloc, "MB"}
		wr.EndToEnd["peak_live_mb"] = metricValue{peak, "MB"}
	}
	if cfg.traced {
		units := map[string]string{}
		for _, d := range perLayerMetrics() {
			units[d.Name] = d.Unit
		}
		wr.PerLayer = map[string]metricValue{}
		for k, v := range tracedPhase(cfg, in, &t, log) {
			wr.PerLayer[k] = metricValue{v, units[k]}
		}
	}
	wr.Attempted, wr.Failed = t.attempted, t.failed
	wr.FailedFrac = ratio(float64(t.failed), float64(t.attempted))
	wr.Correct = t.failed == 0
	return wr, nil
}

// reference mines the workload serially with FP-growth and with
// Eclat/tidset, two miners that share no search code; their answers must
// agree.
func reference(w workload, db *fim.DB) (input, error) {
	in := input{name: w.name, db: db, support: w.support}
	fp, err := fim.Mine(db, w.support, fim.Options{Algorithm: fim.FPGrowth})
	if err != nil {
		return in, fmt.Errorf("reference FP-growth: %w", err)
	}
	ec, err := fim.Mine(db, w.support, fim.Options{Algorithm: fim.Eclat, Representation: fim.Tidset})
	if err != nil {
		return in, fmt.Errorf("reference Eclat/tidset: %w", err)
	}
	in.ref, in.refRes = digest(ec.Decoded()), ec
	if fd := digest(fp.Decoded()); fd != in.ref {
		return in, errors.New("reference miners disagree: FP-growth " + fd + ", Eclat/tidset " + in.ref)
	}
	return in, nil
}

// gitCommit returns the VCS revision the binary was built from, marked
// "+dirty" for uncommitted changes, or "unknown" outside a repository.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// printMetrics prints every metric of every workload by name with its
// unit, in declaration order.
func printMetrics(w io.Writer, rep report) {
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "# %s: %d rows, support %g (%d), %d itemsets, max size %d; %d of %d mines failed\n",
			wr.Name, wr.Rows, wr.Support, wr.MinSupport, wr.Itemsets, wr.MaxK, wr.Failed, wr.Attempted)
		if wr.HostFactor != 0 {
			fmt.Fprintf(w, "# %s: host factor %.4f; end-to-end times are wall times divided by it\n", wr.Name, wr.HostFactor)
		}
		for _, set := range []struct {
			defs []metricDef
			vals map[string]metricValue
		}{{endToEndMetrics(), wr.EndToEnd}, {perLayerMetrics(), wr.PerLayer}} {
			for _, d := range set.defs {
				if v, ok := set.vals[d.Name]; ok {
					fmt.Fprintf(w, "%-16s %-44s %14.6g %s\n", wr.Name, d.Name, v.Value, v.Unit)
				}
			}
		}
		fmt.Fprintf(w, "%-16s %-44s %14.6g %s\n", wr.Name, "failed_frac", wr.FailedFrac, "ratio")
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
