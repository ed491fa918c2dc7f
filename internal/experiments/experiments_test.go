package experiments

import (
	"strings"
	"testing"

	fim "repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/vertical"
)

// tinyConfig keeps experiment tests fast: one small dataset, tiny scale.
func tinyConfig(t *testing.T) Config {
	t.Helper()
	chess, err := datasets.Get("chess")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Scale:    0.05,
		Threads:  []int{1, 16, 256},
		Datasets: []datasets.Def{chess},
	}
}

func TestScalabilityTableShape(t *testing.T) {
	cfg := tinyConfig(t)
	tab := Scalability(core.Apriori, vertical.Diffset, cfg)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	row := tab.Rows[0]
	if row.Dataset != "chess" || len(row.Cells) != 3 {
		t.Fatalf("row = %+v", row)
	}
	if row.Itemsets == 0 {
		t.Error("no itemsets mined")
	}
	if row.RealSeconds <= 0 {
		t.Error("no wall clock recorded")
	}
	// Speedup at 1 thread is 1; more threads never slower than 1.
	if row.Cells[0].Speedup < 0.99 || row.Cells[0].Speedup > 1.01 {
		t.Errorf("base speedup = %v", row.Cells[0].Speedup)
	}
	for _, c := range row.Cells[1:] {
		if c.Speedup < 1 {
			t.Errorf("%d threads slower than serial: %v", c.Threads, c.Speedup)
		}
		if c.SimSeconds <= 0 {
			t.Errorf("%d threads: non-positive time", c.Threads)
		}
	}
}

func TestPaperTablesCoverAllFour(t *testing.T) {
	cfg := tinyConfig(t)
	tabs := PaperTables(cfg)
	if len(tabs) != 4 {
		t.Fatalf("tables = %d", len(tabs))
	}
	wantIDs := []string{"table2+fig5", "table3+fig6", "table6+fig7", "table5+fig8"}
	for i, tab := range tabs {
		if tab.ID != wantIDs[i] {
			t.Errorf("table %d id = %q", i, tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("table %s empty", tab.ID)
		}
	}
	// The paper's algorithm/representation assignments.
	if tabs[0].Algorithm != core.Apriori || tabs[0].Representation != vertical.Diffset {
		t.Error("table2 config wrong")
	}
	if tabs[1].Algorithm != core.Eclat || tabs[1].Representation != vertical.Tidset {
		t.Error("table3 config wrong")
	}
}

func TestAprioriFlat(t *testing.T) {
	tabs := AprioriFlat(tinyConfig(t))
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	if tabs[0].Representation != vertical.Tidset || tabs[1].Representation != vertical.Bitvector {
		t.Error("wrong representations")
	}
}

func TestTableI(t *testing.T) {
	rows := TableI()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Trans != r.PaperTrans {
			t.Errorf("%s: %d transactions, paper %d", r.Name, r.Trans, r.PaperTrans)
		}
		if r.AvgLen <= 0 || r.Items <= 0 {
			t.Errorf("%s: degenerate stats %+v", r.Name, r)
		}
	}
	out := FormatTableI(rows)
	if !strings.Contains(out, "chess") || !strings.Contains(out, "TABLE I") {
		t.Errorf("FormatTableI output:\n%s", out)
	}
}

func TestMemoryFootprintOrdering(t *testing.T) {
	rows := MemoryFootprint(tinyConfig(t))
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	for _, k := range vertical.Kinds() {
		if r.AllocBytes[k] == 0 || r.RemoteBytes[k] == 0 {
			t.Errorf("%v: zero footprint", k)
		}
	}
	// Bitvector is the most compact on tiny chess; diffset below tidset.
	if r.AllocBytes[vertical.Diffset] >= r.AllocBytes[vertical.Tidset] {
		t.Errorf("diffset alloc %d not below tidset %d",
			r.AllocBytes[vertical.Diffset], r.AllocBytes[vertical.Tidset])
	}
	if out := FormatFootprint(rows); !strings.Contains(out, "chess") {
		t.Errorf("FormatFootprint:\n%s", out)
	}
}

func TestScheduleAblation(t *testing.T) {
	rows := ScheduleAblation(tinyConfig(t))
	if len(rows) != 2 { // apriori + eclat for one dataset
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, name := range []string{"static", "dynamic,1", "guided"} {
			if r.Seconds[name] <= 0 {
				t.Errorf("%v %s: non-positive time", r.Algorithm, name)
			}
		}
	}
	if out := FormatSchedule(rows); !strings.Contains(out, "dynamic") {
		t.Errorf("FormatSchedule:\n%s", out)
	}
}

func TestChunkAblation(t *testing.T) {
	rows := ChunkAblation(tinyConfig(t))
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Chunk 1 must not be worse than chunk 16 (the paper's "as small as
	// possible" choice).
	if rows[0].Seconds[1] > rows[0].Seconds[16] {
		t.Errorf("chunk 1 (%v) slower than chunk 16 (%v)", rows[0].Seconds[1], rows[0].Seconds[16])
	}
	if out := FormatChunk(rows); !strings.Contains(out, "chunk=1") {
		t.Errorf("FormatChunk:\n%s", out)
	}
}

func TestDepthAblation(t *testing.T) {
	// Chess at half its size: 25 row blocks. At the tiny scale's 3
	// blocks the level-2 pair count, which every depth above 1 runs over
	// the row blocks, is capped at 3-way parallelism and alone outweighs
	// what flattening gains at 256 threads.
	cfg := tinyConfig(t)
	cfg.Scale = 0.5
	rows := DepthAblation(cfg)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	for _, depth := range []int{1, 2, 3, 4} {
		if r.Speedup[depth] < 1 {
			t.Errorf("depth %d speedup %v below 1", depth, r.Speedup[depth])
		}
	}
	// Deeper flattening never hurts on dense data.
	if r.Speedup[4] < r.Speedup[1] {
		t.Errorf("depth 4 (%v) worse than depth 1 (%v)", r.Speedup[4], r.Speedup[1])
	}
	if out := FormatDepth(rows); !strings.Contains(out, "depth=4") {
		t.Errorf("FormatDepth:\n%s", out)
	}
}

func TestSparseLimit(t *testing.T) {
	t40, err := datasets.Get("T40I10D100K")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scale: 0.02, Threads: []int{1, 256}, Datasets: []datasets.Def{t40}}
	rows := SparseLimit(cfg)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].FrequentItems == 0 {
		t.Skip("too small at test scale")
	}
	if out := FormatSparse(rows); !strings.Contains(out, "T40I10D100K") {
		t.Errorf("FormatSparse:\n%s", out)
	}
}

func TestTableFormat(t *testing.T) {
	tab := Scalability(core.Eclat, vertical.Diffset, tinyConfig(t))
	tab.ID, tab.Title = "test", "Test table"
	out := tab.Format()
	for _, want := range []string{"TEST", "simulated ms", "chess@", "speedup", "256"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.defaults()
	if c.Scale != DefaultScale || len(c.Threads) != len(DefaultThreads) || c.Machine.CoresPerBlade != 16 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestBaselines(t *testing.T) {
	rows := Baselines(tinyConfig(t))
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	for _, tm := range []Timing{r.VerticalTidset, r.VerticalDiffset, r.HorizontalScan, r.PointerTrie} {
		if tm.Min <= 0 || tm.Min > tm.Median || tm.Median > tm.Max {
			t.Errorf("timing not a positive min ≤ median ≤ max: %+v", r)
		}
	}
	if r.AtomicRemote == 0 {
		t.Error("atomic counting recorded no shared-counter traffic")
	}
	if out := FormatBaselines(rows); !strings.Contains(out, "chess") {
		t.Errorf("FormatBaselines:\n%s", out)
	}
}

func TestHTAblation(t *testing.T) {
	rows := HTAblation(tinyConfig(t))
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// HT must never help by more than the SMT gain, nor hurt (the model
	// idles the sibling contexts when sharing would be slower).
	gain := r.NoHT / r.WithHT
	if gain < 0.999 || gain > 1.10 {
		t.Errorf("HT gain = %v", gain)
	}
	if out := FormatHT(rows); !strings.Contains(out, "noHT") {
		t.Errorf("FormatHT:\n%s", out)
	}
}

// TestScalabilityReplaysTheProductRun: a Scalability row replays the
// run fim.MineAbsolute makes with the same options and a trace, first
// pass and item order included: the same itemsets and, at every thread
// count, the same simulated seconds.
func TestScalabilityReplaysTheProductRun(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Threads = []int{1, 16}
	d := cfg.Datasets[0]
	db := d.Build(cfg.Scale * d.ExperimentScale)
	minSup := db.AbsoluteSupport(d.DefaultSupport)
	for _, algo := range []core.Algorithm{core.Apriori, core.Eclat} {
		for _, rep := range []vertical.Kind{vertical.Tidset, vertical.Diffset} {
			row := Scalability(algo, rep, cfg).Rows[0]
			trace := &fim.Trace{}
			res, err := fim.MineAbsolute(db, minSup, fim.Options{Algorithm: algo, Representation: rep, Workers: 1, Trace: trace})
			if err != nil {
				t.Fatal(err)
			}
			if row.Itemsets != res.Len() {
				t.Errorf("%v/%v: row has %d itemsets, fim.MineAbsolute %d", algo, rep, row.Itemsets, res.Len())
			}
			for _, c := range row.Cells {
				if want := fim.Simulate(trace, c.Threads, fim.Blacklight()); c.SimSeconds != want {
					t.Errorf("%v/%v at %d threads: row %v simulated seconds, fim.MineAbsolute's trace %v",
						algo, rep, c.Threads, c.SimSeconds, want)
				}
			}
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := Scalability(core.Eclat, vertical.Diffset, tinyConfig(t))
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "dataset,support,t1,t16,t256" {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "chess,") {
		t.Errorf("csv row = %q", lines[1])
	}
}
