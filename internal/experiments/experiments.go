// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) plus the ablations called out in DESIGN.md. Each
// experiment mines a synthetic dataset once per configuration through
// fim.MineAbsolute, serially and with a replay trace, then replays that
// trace on the simulated Blacklight machine across the paper's thread
// counts (16…256, plus 1 as the speedup base). The trace is of the run
// the product makes: the same first pass, item order and level-2 rule.
//
// The output types carry both the simulated runtime tables (the paper's
// Tables II–V) and the speedup series (Figures 5–8).
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	fim "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/datasets"
	"repro/internal/horizontal"
	"repro/internal/machine"
	"repro/internal/ptrie"
	"repro/internal/sched"
	"repro/internal/vertical"
)

// DefaultThreads is the paper's thread axis with a 1-thread speedup base.
var DefaultThreads = []int{1, 16, 32, 64, 128, 256}

// DefaultScale multiplies each dataset's own ExperimentScale (chess and
// mushroom mine at full published size; the large datasets at a fraction
// so the whole matrix finishes in minutes on a laptop-class host — the
// scalability shapes are scale-invariant, documented in EXPERIMENTS.md).
const DefaultScale = 1.0

// Config parameterizes an experiment run.
type Config struct {
	Scale   float64
	Threads []int
	Machine machine.Config
	// Datasets restricts the dataset list (nil = the experiment's
	// default).
	Datasets []datasets.Def
}

// Defaults fills zero fields.
func (c Config) defaults() Config {
	if c.Scale == 0 {
		c.Scale = DefaultScale
	}
	if len(c.Threads) == 0 {
		c.Threads = DefaultThreads
	}
	if c.Machine.CoresPerBlade == 0 {
		c.Machine = machine.Blacklight()
	}
	return c
}

// Cell is one (thread count) entry of a scalability row.
type Cell struct {
	Threads        int
	SimSeconds     float64
	Speedup        float64
	BandwidthBound bool
}

// Row is one dataset's scalability series.
type Row struct {
	Dataset  string
	Support  float64
	Itemsets int
	// RealSeconds is the measured wall-clock of the instrumented serial
	// run, first pass included, on this host (not the simulated machine).
	RealSeconds float64
	Cells       []Cell
}

// Table is one paper table/figure pair.
type Table struct {
	ID             string // e.g. "table2+fig5"
	Title          string
	Algorithm      core.Algorithm
	Representation vertical.Kind
	Machine        machine.Config
	Rows           []Row
}

// mustMine unwraps a miner's (result, error) pair. The experiment
// harness never sets a run-control budget or cancellable context, so a
// mining error here is a bug, not an operating condition.
func mustMine(res *fim.Result, err error) *fim.Result {
	if err != nil {
		panic(fmt.Sprintf("experiments: mining failed: %v", err))
	}
	return res
}

// mine runs opt on db at minSup through fim.MineAbsolute, serially and
// with a new replay trace, and returns the result, the trace and the
// run's wall-clock seconds on this host. The trace leads with the first
// pass's loops (dataset/count, dataset/recode), so every simulated
// runtime charges the whole run, not the miner alone.
func mine(db *fim.DB, minSup int, opt fim.Options) (*fim.Result, *fim.Trace, float64) {
	opt.Workers, opt.Trace = 1, &fim.Trace{}
	start := time.Now()
	res := mustMine(fim.MineAbsolute(db, minSup, opt))
	return res, opt.Trace, time.Since(start).Seconds()
}

// Scalability builds one runtime+speedup table for an algorithm and
// representation over the given datasets — the generator for Tables II–V
// and Figures 5–8.
func Scalability(algo core.Algorithm, rep vertical.Kind, cfg Config) *Table {
	cfg = cfg.defaults()
	defs := cfg.Datasets
	if defs == nil {
		defs = datasets.Dense()
	}
	t := &Table{
		Algorithm:      algo,
		Representation: rep,
		Machine:        cfg.Machine,
	}
	for _, d := range defs {
		db := d.Build(cfg.Scale * d.ExperimentScale)
		res, trace, real := mine(db, db.AbsoluteSupport(d.DefaultSupport), fim.Options{Algorithm: algo, Representation: rep})
		times, speedups := machine.Speedup(trace, cfg.Threads, cfg.Machine)
		row := Row{
			Dataset:     d.Name,
			Support:     d.DefaultSupport,
			Itemsets:    res.Len(),
			RealSeconds: real,
		}
		for i := range times {
			row.Cells = append(row.Cells, Cell{
				Threads:        cfg.Threads[i],
				SimSeconds:     times[i].Seconds,
				Speedup:        speedups[i],
				BandwidthBound: times[i].BandwidthBound,
			})
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// PaperTables returns the four headline scalability tables in paper
// order: Table II/Fig 5 (Apriori+diffset), Table III/Fig 6
// (Eclat+tidset), Table VI/Fig 7 (Eclat+bitvector), Table V/Fig 8
// (Eclat+diffset).
func PaperTables(cfg Config) []*Table {
	specs := []struct {
		id, title string
		algo      core.Algorithm
		rep       vertical.Kind
	}{
		{"table2+fig5", "Running time and speedup for Apriori with Diffset", core.Apriori, vertical.Diffset},
		{"table3+fig6", "Running time and speedup for Eclat with Tidset", core.Eclat, vertical.Tidset},
		{"table6+fig7", "Running time and speedup for Eclat with Bitvector", core.Eclat, vertical.Bitvector},
		{"table5+fig8", "Running time and speedup for Eclat with Diffset", core.Eclat, vertical.Diffset},
	}
	var out []*Table
	for _, s := range specs {
		t := Scalability(s.algo, s.rep, cfg)
		t.ID, t.Title = s.id, s.title
		out = append(out, t)
	}
	return out
}

// AprioriFlat reproduces the §V-A negative result: Apriori with tidset
// and bitvector does not scale beyond one blade (16 threads).
func AprioriFlat(cfg Config) []*Table {
	var out []*Table
	for _, rep := range []vertical.Kind{vertical.Tidset, vertical.Bitvector} {
		t := Scalability(core.Apriori, rep, cfg)
		t.ID = "apriori-" + rep.String()
		t.Title = fmt.Sprintf("Apriori with %s (§V-A: not scalable beyond one blade)", rep)
		out = append(out, t)
	}
	return out
}

// TableIRow is one row of the dataset summary (paper Table I).
type TableIRow struct {
	Name        string
	Items       int
	AvgLen      float64
	Trans       int
	SizeKB      int
	PaperItems  int
	PaperAvgLen float64
	PaperTrans  int
}

// TableI computes the dataset summary at full scale (generation is cheap
// even when mining at that scale is not).
func TableI() []TableIRow {
	var rows []TableIRow
	for _, d := range datasets.Dense() {
		st := d.Build(1).ComputeStats()
		rows = append(rows, TableIRow{
			Name:        d.Name,
			Items:       st.NumItems,
			AvgLen:      st.AvgLength,
			Trans:       st.NumTransactions,
			SizeKB:      st.SizeBytes / 1024,
			PaperItems:  d.PaperItems,
			PaperAvgLen: d.PaperAvgLen,
			PaperTrans:  d.PaperTrans,
		})
	}
	return rows
}

// FootprintRow reports, for one dataset, each representation's total
// candidate payload allocation during an Apriori run — ablation A2, the
// §V-A memory-footprint argument.
type FootprintRow struct {
	Dataset    string
	Support    float64
	AllocBytes map[vertical.Kind]int64
	// RemoteBytes is the instrumented parent-read volume per
	// representation (the memory-exchange proxy).
	RemoteBytes map[vertical.Kind]int64
}

// MemoryFootprint runs ablation A2.
func MemoryFootprint(cfg Config) []FootprintRow {
	cfg = cfg.defaults()
	defs := cfg.Datasets
	if defs == nil {
		defs = datasets.Dense()
	}
	var rows []FootprintRow
	for _, d := range defs {
		db := d.Build(cfg.Scale * d.ExperimentScale)
		minSup := db.AbsoluteSupport(d.DefaultSupport)
		row := FootprintRow{
			Dataset:     d.Name,
			Support:     d.DefaultSupport,
			AllocBytes:  map[vertical.Kind]int64{},
			RemoteBytes: map[vertical.Kind]int64{},
		}
		for _, rep := range vertical.Kinds() {
			_, trace, _ := mine(db, minSup, fim.Options{Algorithm: core.Apriori, Representation: rep})
			// A2 weighs the payloads, so the sums leave out the first
			// pass's count and recode loops: they start at vertical/roots.
			for _, l := range trace.Loops {
				if l.Model != nil && l.Name != "dataset/count" && l.Name != "dataset/recode" {
					row.AllocBytes[rep] += l.Model.TotalAlloc()
					row.RemoteBytes[rep] += l.Model.TotalRemote()
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// ScheduleRow is one cell of the scheduling ablation A1: simulated time
// of one algorithm/dataset under each loop schedule.
type ScheduleRow struct {
	Dataset   string
	Algorithm core.Algorithm
	Threads   int
	Seconds   map[string]float64 // schedule name -> simulated seconds
}

// ScheduleAblation runs ablation A1: static vs dynamic vs guided for
// both algorithms at the largest thread count.
func ScheduleAblation(cfg Config) []ScheduleRow {
	cfg = cfg.defaults()
	defs := cfg.Datasets
	if defs == nil {
		defs = datasets.Dense()
	}
	threads := cfg.Threads[len(cfg.Threads)-1]
	schedules := []sched.Schedule{
		{Policy: sched.Static},
		{Policy: sched.Dynamic, Chunk: 1},
		{Policy: sched.Guided},
	}
	var rows []ScheduleRow
	for _, d := range defs {
		db := d.Build(cfg.Scale * d.ExperimentScale)
		minSup := db.AbsoluteSupport(d.DefaultSupport)
		for _, algo := range []core.Algorithm{core.Apriori, core.Eclat} {
			row := ScheduleRow{Dataset: d.Name, Algorithm: algo, Threads: threads, Seconds: map[string]float64{}}
			for _, s := range schedules {
				_, trace, _ := mine(db, minSup, fim.Options{Algorithm: algo, Representation: vertical.Diffset, Schedule: &s})
				row.Seconds[s.String()] = machine.Simulate(trace, threads, cfg.Machine).Seconds
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// ChunkRow is one cell of ablation A3: Eclat's sensitivity to the
// dynamic chunk size ("we choose the chunksize to as small as possible").
type ChunkRow struct {
	Dataset string
	Threads int
	Seconds map[int]float64 // chunk size -> simulated seconds
}

// ChunkAblation runs ablation A3.
func ChunkAblation(cfg Config) []ChunkRow {
	cfg = cfg.defaults()
	defs := cfg.Datasets
	if defs == nil {
		defs = datasets.Dense()
	}
	threads := cfg.Threads[len(cfg.Threads)-1]
	var rows []ChunkRow
	for _, d := range defs {
		db := d.Build(cfg.Scale * d.ExperimentScale)
		minSup := db.AbsoluteSupport(d.DefaultSupport)
		row := ChunkRow{Dataset: d.Name, Threads: threads, Seconds: map[int]float64{}}
		for _, chunk := range []int{1, 2, 4, 8, 16} {
			_, trace, _ := mine(db, minSup, fim.Options{Algorithm: core.Eclat, Representation: vertical.Diffset,
				Schedule: &sched.Schedule{Policy: sched.Dynamic, Chunk: chunk}})
			row.Seconds[chunk] = machine.Simulate(trace, threads, cfg.Machine).Seconds
		}
		rows = append(rows, row)
	}
	return rows
}

// DepthRow is one row of ablation A4: Eclat's flattening-depth
// sensitivity (simulated speedup at the largest thread count per depth).
type DepthRow struct {
	Dataset string
	Threads int
	Speedup map[int]float64 // depth -> speedup at Threads
}

// DepthAblation runs ablation A4 over Eclat/diffset.
func DepthAblation(cfg Config) []DepthRow {
	cfg = cfg.defaults()
	defs := cfg.Datasets
	if defs == nil {
		defs = datasets.Dense()
	}
	threads := cfg.Threads[len(cfg.Threads)-1]
	var rows []DepthRow
	for _, d := range defs {
		db := d.Build(cfg.Scale * d.ExperimentScale)
		minSup := db.AbsoluteSupport(d.DefaultSupport)
		row := DepthRow{Dataset: d.Name, Threads: threads, Speedup: map[int]float64{}}
		for _, depth := range []int{1, 2, 3, 4} {
			_, trace, _ := mine(db, minSup, fim.Options{Algorithm: core.Eclat, Representation: vertical.Diffset, EclatDepth: depth})
			_, sp := machine.Speedup(trace, []int{threads}, cfg.Machine)
			row.Speedup[depth] = sp[0]
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatDepth renders ablation A4.
func FormatDepth(rows []DepthRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "A4 — Eclat flattening-depth ablation (simulated speedup at %d threads, diffset)\n", 256)
	fmt.Fprintf(&b, "%-14s %8s %10s %10s %10s %10s\n", "dataset", "threads", "depth=1", "depth=2", "depth=3", "depth=4")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %10.1f %10.1f %10.1f %10.1f\n",
			r.Dataset, r.Threads, r.Speedup[1], r.Speedup[2], r.Speedup[3], r.Speedup[4])
	}
	return b.String()
}

// SparseRow is one row of experiment E6: sparse datasets whose frequent
// item count caps Eclat's first-level parallelism, the paper's reason
// for omitting T40I10D100K and accidents.
type SparseRow struct {
	Dataset       string
	Support       float64
	FrequentItems int
	Cells         []Cell
}

// SparseLimit runs E6 on the two sparse datasets.
func SparseLimit(cfg Config) []SparseRow {
	cfg = cfg.defaults()
	defs := cfg.Datasets
	if defs == nil {
		for _, d := range datasets.All() {
			if !d.Dense {
				defs = append(defs, d)
			}
		}
	}
	var rows []SparseRow
	for _, d := range defs {
		db := d.Build(cfg.Scale * d.ExperimentScale)
		res, trace, _ := mine(db, db.AbsoluteSupport(d.DefaultSupport), fim.Options{Algorithm: core.Eclat, Representation: vertical.Diffset})
		times, speedups := machine.Speedup(trace, cfg.Threads, cfg.Machine)
		row := SparseRow{Dataset: d.Name, Support: d.DefaultSupport, FrequentItems: len(res.Rec.Items)}
		for i := range times {
			row.Cells = append(row.Cells, Cell{Threads: cfg.Threads[i], SimSeconds: times[i].Seconds, Speedup: speedups[i]})
		}
		rows = append(rows, row)
	}
	return rows
}

// BaselineRow is one row of ablation A5/A6: serial wall-clock of the
// horizontal baselines against vertical Apriori (the §II-B "order of
// magnitude" claim), plus the atomic-counting penalty signal.
type BaselineRow struct {
	Dataset string
	Support float64
	// Seconds of serial mining on this host per engine.
	VerticalTidset  Timing
	VerticalDiffset Timing
	HorizontalScan  Timing // per-transaction subset scanning (partial counters)
	PointerTrie     Timing // Bodon-style trie-descent counting
	// AtomicRemote is the shared-counter cache-line traffic the atomic
	// variant records (the §III race-protection cost); partial counting
	// records zero.
	AtomicRemote int64
}

// Timing is the wall-clock seconds of baselineRuns runs of one engine.
type Timing struct{ Median, Min, Max float64 }

// baselineRuns is how often Baselines times each engine: one run's
// wall-clock varies too much on a shared host to compare a change by.
const baselineRuns = 5

// timeRuns runs f baselineRuns times and returns its timing.
func timeRuns(f func()) Timing {
	secs := make([]float64, baselineRuns)
	for i := range secs {
		start := time.Now()
		f()
		secs[i] = time.Since(start).Seconds()
	}
	sort.Float64s(secs)
	return Timing{Median: secs[len(secs)/2], Min: secs[0], Max: secs[len(secs)-1]}
}

// Baselines runs ablation A5/A6 on the dense datasets at reduced scale
// (horizontal scanning is quadratic-ish and only needs to show its
// order-of-magnitude gap).
func Baselines(cfg Config) []BaselineRow {
	cfg = cfg.defaults()
	defs := cfg.Datasets
	if defs == nil {
		defs = datasets.Dense()
	}
	var rows []BaselineRow
	for _, d := range defs {
		db := d.Build(cfg.Scale * d.ExperimentScale * 0.25)
		minSup := db.AbsoluteSupport(d.DefaultSupport)
		row := BaselineRow{Dataset: d.Name, Support: d.DefaultSupport}
		// Every engine mines the one item order fim.Mine codes by, and
		// each timing includes that engine's own recode.
		apriori := func(rep vertical.Kind) func() {
			return func() {
				mustMine(fim.MineAbsolute(db, minSup, fim.Options{Algorithm: core.Apriori, Representation: rep, Workers: 1}))
			}
		}
		recode := func() *dataset.Recoded { return db.RecodeOrdered(minSup, dataset.ByFrequency) }
		row.VerticalTidset = timeRuns(apriori(vertical.Tidset))
		row.VerticalDiffset = timeRuns(apriori(vertical.Diffset))
		row.HorizontalScan = timeRuns(func() { horizontal.Mine(recode(), minSup, 1, horizontal.Partial, nil) })
		row.PointerTrie = timeRuns(func() { ptrie.Mine(recode(), minSup, 1) })
		trace := &sched.Record{}
		horizontal.Mine(recode(), minSup, 1, horizontal.Atomic, trace)
		row.AtomicRemote = trace.TotalRemote()
		rows = append(rows, row)
	}
	return rows
}

// FormatBaselines renders ablation A5/A6.
func FormatBaselines(rows []BaselineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "A5/A6 — Horizontal baselines vs vertical Apriori (serial wall-clock on this host, median s (min–max) of %d runs)\n", baselineRuns)
	fmt.Fprintf(&b, "%-16s %21s %21s %21s %21s %14s\n",
		"dataset@support", "vert/tidset", "vert/diffset", "horiz/scan", "ptrie", "atomicTraffic")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s", fmt.Sprintf("%s@%g", r.Dataset, r.Support))
		for _, t := range []Timing{r.VerticalTidset, r.VerticalDiffset, r.HorizontalScan, r.PointerTrie} {
			fmt.Fprintf(&b, " %21s", fmt.Sprintf("%.3f (%.3f–%.3f)", t.Median, t.Min, t.Max))
		}
		fmt.Fprintf(&b, " %12.1fMB\n", float64(r.AtomicRemote)/(1<<20))
	}
	return b.String()
}

// HTRow is one row of ablation A8: hyperthreading on the simulated
// machine (paper §V: "We did not use hyper thread as it does not improve
// our program performance").
type HTRow struct {
	Dataset string
	NoHT    float64 // seconds at Threads on the base machine
	WithHT  float64 // seconds at 2*Threads with SMT sharing the cores
	Threads int
}

// HTAblation runs ablation A8 over Eclat/diffset.
func HTAblation(cfg Config) []HTRow {
	cfg = cfg.defaults()
	defs := cfg.Datasets
	if defs == nil {
		defs = datasets.Dense()
	}
	threads := cfg.Threads[len(cfg.Threads)-1]
	ht := cfg.Machine.WithHyperthreading(1.05)
	var rows []HTRow
	for _, d := range defs {
		db := d.Build(cfg.Scale * d.ExperimentScale)
		_, trace, _ := mine(db, db.AbsoluteSupport(d.DefaultSupport), fim.Options{Algorithm: core.Eclat, Representation: vertical.Diffset})
		noHT := machine.Simulate(trace, threads, cfg.Machine).Seconds
		// With SMT, a core running a single busy thread still gets full
		// throughput, so the hyperthreaded machine is never slower than
		// idling every second context: take the better of the two.
		shared := machine.Simulate(trace, 2*threads, ht).Seconds
		withHT := shared
		if noHT < withHT {
			withHT = noHT
		}
		rows = append(rows, HTRow{
			Dataset: d.Name,
			Threads: threads,
			NoHT:    noHT,
			WithHT:  withHT,
		})
	}
	return rows
}

// FormatHT renders ablation A8.
func FormatHT(rows []HTRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "A8 — Hyperthreading ablation (simulated ms, Eclat/diffset)\n")
	fmt.Fprintf(&b, "%-14s %10s %14s %14s %8s\n", "dataset", "threads", "noHT", "HT(2x thr)", "gain")
	for _, r := range rows {
		gain := r.NoHT / r.WithHT
		fmt.Fprintf(&b, "%-14s %10d %12.3fms %12.3fms %7.2fx\n", r.Dataset, r.Threads, 1e3*r.NoHT, 1e3*r.WithHT, gain)
	}
	return b.String()
}

// --- formatting --------------------------------------------------------

// Format renders the table the way the paper's tables + figures read:
// a runtime block (simulated milliseconds per thread count, as A1, A3
// and A8 print them: the 256-thread runs take well under a millisecond)
// and a speedup block.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s [%v/%v]\n", strings.ToUpper(t.ID), t.Title, t.Algorithm, t.Representation)
	fmt.Fprintf(&b, "machine: %s\n", t.Machine.Describe())
	if len(t.Rows) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "runtime (simulated ms):\n%-22s", "dataset@support")
	for _, c := range t.Rows[0].Cells {
		fmt.Fprintf(&b, "%12d", c.Threads)
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s", fmt.Sprintf("%s@%g", r.Dataset, r.Support))
		for _, c := range r.Cells {
			mark := " "
			if c.BandwidthBound {
				mark = "*"
			}
			fmt.Fprintf(&b, "%11.3f%s", 1e3*c.SimSeconds, mark)
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "speedup (relative to one thread):\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s", fmt.Sprintf("%s@%g", r.Dataset, r.Support))
		for _, c := range r.Cells {
			fmt.Fprintf(&b, "%12.1f", c.Speedup)
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "(* = interconnect bandwidth bound; itemset counts: ")
	for i, r := range t.Rows {
		if i > 0 {
			fmt.Fprintf(&b, ", ")
		}
		fmt.Fprintf(&b, "%s=%d", r.Dataset, r.Itemsets)
	}
	fmt.Fprintf(&b, ")\n")
	return b.String()
}

// CSV renders the table's speedup series as plot-ready CSV: one row per
// dataset, one column per thread count — the data behind the paper's
// figures.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataset,support")
	if len(t.Rows) > 0 {
		for _, c := range t.Rows[0].Cells {
			fmt.Fprintf(&b, ",t%d", c.Threads)
		}
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s,%g", r.Dataset, r.Support)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, ",%.2f", c.Speedup)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// FormatTableI renders the dataset summary against the published values.
func FormatTableI(rows []TableIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I — Summary of test datasets (synthetic vs published)\n")
	fmt.Fprintf(&b, "%-12s %22s %22s %22s %10s\n", "dataset", "items (ours/paper)", "avg len (ours/paper)", "trans (ours/paper)", "size")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12d / %-7d %12.1f / %-7.1f %12d / %-7d %8dK\n",
			r.Name, r.Items, r.PaperItems, r.AvgLen, r.PaperAvgLen, r.Trans, r.PaperTrans, r.SizeKB)
	}
	return b.String()
}

// FormatFootprint renders ablation A2.
func FormatFootprint(rows []FootprintRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "A2 — Apriori payload allocation and parent-read volume per representation\n")
	fmt.Fprintf(&b, "%-22s %14s %14s %14s   %s\n", "dataset@support", "tidset", "bitvector", "diffset", "(alloc MB | remote MB)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s", fmt.Sprintf("%s@%g", r.Dataset, r.Support))
		for _, k := range vertical.Kinds() {
			fmt.Fprintf(&b, " %6.1f|%6.1f", float64(r.AllocBytes[k])/(1<<20), float64(r.RemoteBytes[k])/(1<<20))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// FormatSchedule renders ablation A1.
func FormatSchedule(rows []ScheduleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "A1 — Loop-schedule ablation (simulated ms, diffset)\n")
	names := []string{"static", "dynamic,1", "guided"}
	fmt.Fprintf(&b, "%-14s %-9s %8s", "dataset", "algo", "threads")
	for _, n := range names {
		fmt.Fprintf(&b, "%12s", n)
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9v %8d", r.Dataset, r.Algorithm, r.Threads)
		for _, n := range names {
			fmt.Fprintf(&b, "%12.3f", 1e3*r.Seconds[n])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// FormatChunk renders ablation A3.
func FormatChunk(rows []ChunkRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "A3 — Eclat dynamic chunk-size ablation (simulated ms)\n")
	var chunks []int
	if len(rows) > 0 {
		for c := range rows[0].Seconds {
			chunks = append(chunks, c)
		}
		sort.Ints(chunks)
	}
	fmt.Fprintf(&b, "%-14s %8s", "dataset", "threads")
	for _, c := range chunks {
		fmt.Fprintf(&b, "%12s", fmt.Sprintf("chunk=%d", c))
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d", r.Dataset, r.Threads)
		for _, c := range chunks {
			fmt.Fprintf(&b, "%12.3f", 1e3*r.Seconds[c])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// FormatSparse renders experiment E6.
func FormatSparse(rows []SparseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E6 — Sparse datasets: first-level classes cap Eclat speedup (§V note)\n")
	if len(rows) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-22s %10s", "dataset@support", "freqItems")
	for _, c := range rows[0].Cells {
		fmt.Fprintf(&b, "%10d", c.Threads)
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %10d", fmt.Sprintf("%s@%g", r.Dataset, r.Support), r.FrequentItems)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, "%10.1f", c.Speedup)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
