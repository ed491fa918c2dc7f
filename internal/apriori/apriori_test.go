package apriori

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sched"
	"repro/internal/verify"
	"repro/internal/vertical"
)

const classic = `1 2 5
2 4
2 3
1 2 4
1 3
2 3
1 3
1 2 3 5
1 2 3
`

func classicRecoded(t *testing.T, minSup int) *dataset.Recoded {
	t.Helper()
	db, err := dataset.ReadFIMI("classic", strings.NewReader(classic))
	if err != nil {
		t.Fatal(err)
	}
	return db.Recode(minSup)
}

// The classic Han & Kamber example: minSup 2 yields these frequent sets.
func TestMineClassicExample(t *testing.T) {
	rec := classicRecoded(t, 2)
	res := mine(rec, 2, core.DefaultOptions(vertical.Tidset, 1))
	want := map[string]int{
		"{1}": 6, "{2}": 7, "{3}": 6, "{4}": 2, "{5}": 2,
		"{1, 2}": 4, "{1, 3}": 4, "{1, 5}": 2, "{2, 3}": 4, "{2, 4}": 2, "{2, 5}": 2,
		"{1, 2, 3}": 2, "{1, 2, 5}": 2,
	}
	got := res.Decoded()
	if len(got) != len(want) {
		t.Fatalf("found %d itemsets, want %d: %v", len(got), len(want), got)
	}
	for _, c := range got {
		if want[c.Items.String()] != c.Support {
			t.Errorf("%v support %d, want %d", c.Items, c.Support, want[c.Items.String()])
		}
	}
	if res.MaxK != 3 {
		t.Errorf("MaxK = %d, want 3", res.MaxK)
	}
}

func TestMineAllRepresentationsAgree(t *testing.T) {
	rec := classicRecoded(t, 2)
	ref := verify.Reference(rec, 2)
	for _, kind := range vertical.AllKinds() {
		res := mine(rec, 2, core.DefaultOptions(kind, 1))
		if !res.Equal(ref) {
			t.Errorf("%v disagrees with reference:\n%s", kind, verify.Diff(res, ref))
		}
	}
}

func TestMineParallelMatchesSerial(t *testing.T) {
	rec := classicRecoded(t, 2)
	serial := mine(rec, 2, core.DefaultOptions(vertical.Diffset, 1))
	for _, workers := range []int{2, 3, 8, 64} {
		for _, schedule := range []sched.Schedule{
			{Policy: sched.Static}, {Policy: sched.Dynamic, Chunk: 1}, {Policy: sched.Guided},
		} {
			opt := core.DefaultOptions(vertical.Diffset, workers)
			opt.Schedule = &schedule
			res := mine(rec, 2, opt)
			if !res.Equal(serial) {
				t.Errorf("workers=%d %v disagrees with serial:\n%s", workers, schedule, verify.Diff(res, serial))
			}
		}
	}
}

func TestMineEdgeCases(t *testing.T) {
	// Threshold above all supports: only the recode survives (nothing).
	db, _ := dataset.ReadFIMI("t", strings.NewReader("1 2\n1 2\n"))
	rec := db.Recode(3)
	res := mine(rec, 3, core.DefaultOptions(vertical.Tidset, 2))
	if res.Len() != 0 {
		t.Errorf("found %d itemsets above max support", res.Len())
	}
	// Single transaction, minSup 1: all subsets frequent.
	db2, _ := dataset.ReadFIMI("t", strings.NewReader("1 2 3\n"))
	rec2 := db2.Recode(1)
	res2 := mine(rec2, 1, core.DefaultOptions(vertical.Diffset, 1))
	if res2.Len() != 7 { // 2^3 - 1
		t.Errorf("single transaction: %d itemsets, want 7", res2.Len())
	}
	// Empty database.
	rec3 := (&dataset.DB{}).Recode(1)
	res3 := mine(rec3, 1, core.DefaultOptions(vertical.Bitvector, 4))
	if res3.Len() != 0 {
		t.Errorf("empty DB produced %d itemsets", res3.Len())
	}
	// minSup below 1 clamps.
	res4 := mine(rec2, 0, core.DefaultOptions(vertical.Tidset, 1))
	if res4.MinSup != 1 {
		t.Errorf("MinSup = %d", res4.MinSup)
	}
}

// TestCollectorRecordsPhases: the loop record holds the root build
// (both halves: the team runs it over the recode's row chunks), the
// level-2 pair count the cost rule picks on these tidsets (both
// halves), each generation's counting loop (both halves) and each
// subset-prune loop (measured only, named after its generation).
// Generation 2 counts only the pairs the pair count found frequent.
func TestCollectorRecordsPhases(t *testing.T) {
	rec := classicRecoded(t, 2)
	trace := &sched.Record{}
	opt := core.DefaultOptions(vertical.Tidset, 2)
	opt.Record = trace
	res := mine(rec, 2, opt)
	var names []string
	for _, l := range trace.Loops {
		names = append(names, l.Name)
	}
	want := []string{"vertical/roots", "dataset/pairs", "apriori/gen2", "apriori/prune3", "apriori/gen3", "apriori/prune4"}
	if !slices.Equal(names, want) {
		t.Fatalf("loops = %q, want %q", names, want)
	}
	roots, pairs, gen2, prune3 := trace.Loops[0], trace.Loops[1], trace.Loops[2], trace.Loops[3]
	for _, l := range []*sched.Loop{roots, pairs} {
		if l.Load == nil || l.Load.TotalTasks() != int64(l.Load.N) || l.Model == nil || l.Model.TotalWork() == 0 {
			t.Errorf("%s: load %+v, model %+v; want both halves", l.Name, l.Load, l.Model)
		}
	}
	frequentPairs := 0
	for _, c := range res.Counts {
		if len(c.Items) == 2 {
			frequentPairs++
		}
	}
	if gen2.Model.Tasks() != frequentPairs {
		t.Errorf("gen2 counted %d candidates, want the %d frequent pairs", gen2.Model.Tasks(), frequentPairs)
	}
	if prune3.Load == nil || prune3.Model != nil {
		t.Errorf("prune3: load %v, model %v; want load only", prune3.Load, prune3.Model)
	}
	if gen2.Load == nil || gen2.Load.TotalTasks() != int64(gen2.Load.N) {
		t.Errorf("gen2 load = %+v", gen2.Load)
	}
	m := gen2.Model
	if m == nil || !m.Shared {
		t.Fatalf("gen2 model = %+v, want shared", m)
	}
	if m.TotalWork() == 0 || m.TotalRemote() == 0 {
		t.Error("gen2 recorded no work")
	}
	// Apriori loops are shared-parent: remote equals the combine reads,
	// so remote <= work.
	if m.TotalRemote() > m.TotalWork() {
		t.Error("remote exceeds work")
	}
}

// TestNoFrequentPairReportsGeneration2: on a database whose items are
// frequent but whose pairs are not, the pair count rejects every pair
// before generation 2 counts anything; the run still emits generation
// 2's level events, with every candidate pruned and none frequent.
func TestNoFrequentPairReportsGeneration2(t *testing.T) {
	db, err := dataset.ReadFIMI("nopair", strings.NewReader("1 2\n3 4\n1 3\n2 4\n1 4\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	rec := db.Recode(2)
	trace, events := &sched.Record{}, &obs.Recorder{}
	opt := core.DefaultOptions(vertical.Tidset, 2)
	opt.Record, opt.Observer = trace, events
	if res := mine(rec, 2, opt); res.Len() != 4 || res.MaxK != 1 {
		t.Fatalf("mined %d itemsets up to size %d, want the 4 items", res.Len(), res.MaxK)
	}
	if len(trace.Loops) != 2 || trace.Loops[1].Name != "dataset/pairs" {
		t.Fatalf("loops %v, want vertical/roots and dataset/pairs", trace.Loops)
	}
	var gen2 []obs.Event
	for _, e := range events.Events() {
		if e.Phase == "apriori/gen2" {
			gen2 = append(gen2, e)
		}
	}
	if len(gen2) != 2 || gen2[0].Type != obs.LevelStart || gen2[1].Type != obs.LevelEnd {
		t.Fatalf("apriori/gen2 events %+v, want a level_start and a level_end", gen2)
	}
	if s, e := gen2[0], gen2[1]; s.Level != 2 || s.Candidates != 6 || s.Pruned != 6 || e.Pruned != 6 || e.Frequent != 0 {
		t.Errorf("apriori/gen2 events %+v, want 6 candidates, all pruned, none frequent", gen2)
	}
}

func TestMemoryFootprintOrdering(t *testing.T) {
	// On dense data the diffset payloads of generations >= 2 must be
	// smaller than the tidset payloads (the paper's §V-A argument; the
	// level-1 diffsets are complements and can be large, so roots are
	// excluded as the paper's Figure 2 discussion implies).
	var sb strings.Builder
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		for it := 1; it <= 6; it++ {
			if r.Intn(10) > 0 { // each item present with probability 0.9
				sb.WriteString(" ")
				sb.WriteString([]string{"", "1", "2", "3", "4", "5", "6"}[it])
			}
		}
		sb.WriteString("\n")
	}
	db, err := dataset.ReadFIMI("dense", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	rec := db.Recode(db.AbsoluteSupport(0.5))
	traceT, traceD := &sched.Record{}, &sched.Record{}
	optT := core.DefaultOptions(vertical.Tidset, 1)
	optT.Record = traceT
	optD := core.DefaultOptions(vertical.Diffset, 1)
	optD.Record = traceD
	mine(rec, rec.MinSup, optT)
	mine(rec, rec.MinSup, optD)
	allocAfterRoots := func(r *sched.Record) int64 {
		return r.TotalAlloc() - r.Loops[0].Model.TotalAlloc()
	}
	dAlloc, tAlloc := allocAfterRoots(traceD), allocAfterRoots(traceT)
	if dAlloc >= tAlloc {
		t.Errorf("diffset alloc %d not below tidset alloc %d on dense data", dAlloc, tAlloc)
	}
}

// Property: Apriori agrees with the exhaustive reference on random
// databases for every representation and several worker counts.
func TestQuickAgainstReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := &dataset.DB{Name: "rand"}
		nTrans := 5 + r.Intn(40)
		nItems := 3 + r.Intn(7)
		for i := 0; i < nTrans; i++ {
			var items []itemset.Item
			for it := 0; it < nItems; it++ {
				if r.Intn(3) > 0 {
					items = append(items, itemset.Item(it))
				}
			}
			if len(items) == 0 {
				items = append(items, 0)
			}
			db.Transactions = append(db.Transactions, itemset.New(items...))
		}
		minSup := 1 + r.Intn(nTrans/2+1)
		rec := db.Recode(minSup)
		ref := verify.Reference(rec, minSup)
		kind := vertical.Kinds()[r.Intn(3)]
		workers := []int{1, 4}[r.Intn(2)]
		res := mine(rec, minSup, core.DefaultOptions(kind, workers))
		return res.Equal(ref)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("apriori vs reference: %v", err)
	}
}

// sparseRecoded builds a sparse random database (80 rows, 10 items,
// each present with probability 1/3) recoded at minsup 0.2: most
// candidates of every generation are infrequent.
func sparseRecoded(t *testing.T) *dataset.Recoded {
	t.Helper()
	var sb strings.Builder
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 80; i++ {
		for it := 1; it <= 10; it++ {
			if r.Intn(3) == 0 {
				sb.WriteString(" ")
				sb.WriteString([]string{"", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"}[it])
			}
		}
		sb.WriteString("\n")
	}
	db, err := dataset.ReadFIMI("sparse", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return db.Recode(db.AbsoluteSupport(0.2))
}

// TestPeakLiveBoundedByFrequentLevels: infrequent children are recycled
// inside the block that built them, so the accounted live footprint
// never exceeds two adjacent frequent levels — the parents being joined
// plus the frequent children built from them — or, while the level-2
// pair count the cost rule picks here runs, the roots plus its one
// chunk's table. The cost model charges the table and every counted
// candidate's payload.
func TestPeakLiveBoundedByFrequentLevels(t *testing.T) {
	rec := sparseRecoded(t)
	rc := runctl.New(context.Background(), runctl.Budget{})
	defer rc.Close()
	rc.TrackMemory()
	trace := &sched.Record{}
	opt := core.DefaultOptions(vertical.Tidset, 2)
	opt.Control = rc
	opt.Record = trace
	res := mine(rec, rec.MinSup, opt)
	if ref := verify.Reference(rec, rec.MinSup); !res.Equal(ref) {
		t.Fatalf("vs reference:\n%s", verify.Diff(res, ref))
	}

	// A frequent k-set's tidset holds 4 bytes per supporting TID.
	levelBytes := make([]int64, res.MaxK+2)
	for _, c := range res.Counts {
		levelBytes[len(c.Items)] += 4 * int64(c.Support)
	}
	var bound int64
	for k := 2; k < len(levelBytes); k++ {
		if b := levelBytes[k-1] + levelBytes[k]; b > bound {
			bound = b
		}
	}
	if len(trace.Loops) < 2 || trace.Loops[1].Name != "dataset/pairs" {
		t.Fatalf("no pair count after the roots: %d loops", len(trace.Loops))
	}
	n := len(rec.Items)
	table := 4 * int64(len(rec.Chunks())) * int64(n*(n-1)/2)
	if peak := rc.PeakMem(); peak > max(bound, levelBytes[1]+table) {
		t.Errorf("peak live %d B exceeds two frequent levels (%d B) and the roots plus the pair table (%d B)",
			peak, bound, levelBytes[1]+table)
	}
	// The pair table and every counted candidate's payload, as the
	// model charges them (every generated candidate's took 2832 B before
	// generation 2 counted only the frequent pairs).
	const modelAlloc = 1372
	if got := trace.TotalAlloc(); got != modelAlloc {
		t.Errorf("model TotalAlloc = %d, want %d", got, modelAlloc)
	}
}

// mine wraps Mine for the test call sites that expect an error-free
// run: no budget or cancellation is in play, so an error is a failure.
func mine(rec *dataset.Recoded, minSup int, opt core.Options) *core.Result {
	res, err := Mine(rec, minSup, opt)
	if err != nil {
		panic(err)
	}
	return res
}
