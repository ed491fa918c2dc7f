package fim

// Both sides of the level-2 cost rule (core.LevelTwo): on sparse, wide
// data every kind but nodeset counts its pairs from the rows and
// combines only the frequent ones; on dense data bitvector combines
// every pair. Either way the run mines the reference's answer, and a
// memory budget too small for the count's tables keeps the run on the
// combine path.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/itemset"
	"repro/internal/verify"
	"repro/internal/vertical"
)

// pairRuleDB is sparse and wide: 640 rows of about five of 60 items,
// with the items 0–3 planted together in one row in ten, so the
// frequent itemsets reach size four while under one pair in ten is
// frequent.
func pairRuleDB() *DB {
	r := rand.New(rand.NewSource(26))
	db := &DB{Name: "pairrule"}
	for range 640 {
		var row []itemset.Item
		for range 5 {
			row = append(row, itemset.Item(r.Intn(60)))
		}
		if r.Intn(10) == 0 {
			row = append(row, 0, 1, 2, 3)
		}
		db.Transactions = append(db.Transactions, itemset.New(row...))
	}
	return db
}

// countedPairs reports the side a run took, from its loop record: a
// run that counted its pairs recorded a dataset/pairs loop.
func countedPairs(trace *Trace) bool {
	for _, l := range trace.Loops {
		if l.Name == "dataset/pairs" {
			return true
		}
	}
	return false
}

// pairRuleCells are the miners the rule serves: Apriori, and Eclat at
// depths 1–4 (depth 1 has no pair stage and never counts).
var pairRuleCells = []Options{
	{Algorithm: Apriori},
	{Algorithm: Eclat, EclatDepth: 1},
	{Algorithm: Eclat, EclatDepth: 2},
	{Algorithm: Eclat, EclatDepth: 3},
	{Algorithm: Eclat, EclatDepth: 4},
}

// minePairSide mines db on two workers under opt with a loop record,
// checks the answer against want by content, and returns whether the
// run counted its pairs.
func minePairSide(t *testing.T, db *DB, minSup int, opt Options, want []ItemsetCount) bool {
	t.Helper()
	opt.Workers = 2
	opt.Trace = &Trace{}
	res, err := MineAbsolute(db, minSup, opt)
	label := pairCellLabel(opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if d := decodedDiff(res.Decoded(), want); d != "" {
		t.Errorf("%s vs reference: %s", label, d)
	}
	return countedPairs(opt.Trace)
}

// pairCellLabel names a cell in failures.
func pairCellLabel(opt Options) string {
	return fmt.Sprintf("%v/%v depth %d budget %d", opt.Algorithm, opt.Representation, opt.EclatDepth, opt.MaxMemoryBytes)
}

func TestPairRuleSides(t *testing.T) {
	sparse := pairRuleDB()
	sparseSup := 20
	dense := runctlDB(t)
	denseSup := dense.AbsoluteSupport(0.5)
	sides := []struct {
		name   string
		db     *DB
		minSup int
		counts func(vertical.Kind) (bool, bool) // (side, checked)
	}{
		// Sparse and wide: every kind but nodeset counts.
		{"sparse", sparse, sparseSup, func(k vertical.Kind) (bool, bool) { return k != Nodeset, true }},
		// Dense: bitvector's short roots make combining cheaper; the
		// other kinds' sides are left to the rule, nodeset's excepted.
		{"dense", dense, denseSup, func(k vertical.Kind) (bool, bool) {
			return false, k == Bitvector || k == Nodeset
		}},
	}
	sparseRef := verify.Reference(sparse.Recode(sparseSup), sparseSup)
	if sparseRef.MaxK != 4 {
		t.Fatalf("sparse database mines itemsets up to size %d, want 4", sparseRef.MaxK)
	}
	for _, side := range sides {
		want := verify.Reference(side.db.Recode(side.minSup), side.minSup).Decoded()
		for _, kind := range vertical.AllKinds() {
			wantCount, checked := side.counts(kind)
			for _, cell := range pairRuleCells {
				cell.Representation = kind
				counted := minePairSide(t, side.db, side.minSup, cell, want)
				if cell.Algorithm == Eclat && cell.EclatDepth == 1 {
					if counted {
						t.Errorf("%s %s: counted pairs without a pair stage", side.name, pairCellLabel(cell))
					}
					continue
				}
				if checked && counted != wantCount {
					t.Errorf("%s %s: counted = %v, want %v", side.name, pairCellLabel(cell), counted, wantCount)
				}
			}
		}
	}

	// A table is 4 bytes per pair, one per first-pass chunk as room
	// allows. A budget holding the tidset roots and one table counts
	// into that one table; one byte less keeps the run on the combine
	// path, and it completes with the same answer.
	want := sparseRef.Decoded()
	var roots, n int64
	for _, c := range want {
		if len(c.Items) == 1 {
			roots += 4 * int64(c.Support)
			n++
		}
	}
	table := 4 * n * (n - 1) / 2
	for _, cell := range []Options{pairRuleCells[0], pairRuleCells[2]} {
		cell.Representation = Tidset
		cell.MaxMemoryBytes = roots + table
		if !minePairSide(t, sparse, sparseSup, cell, want) {
			t.Errorf("%s: a budget of roots plus a table did not count", pairCellLabel(cell))
		} else if tasks := pairsTasks(cell); tasks != 1 {
			t.Errorf("%s: counted into %d tables, want the one the budget holds", pairCellLabel(cell), tasks)
		}
		cell.MaxMemoryBytes--
		if minePairSide(t, sparse, sparseSup, cell, want) {
			t.Errorf("%s: counted pairs past the memory budget", pairCellLabel(cell))
		}
	}
}

// pairsTasks mines pairRuleDB under opt on two workers and returns how
// many tasks, one per table, its dataset/pairs loop ran (0 without one).
func pairsTasks(opt Options) int64 {
	opt.Workers = 2
	opt.Trace = &Trace{}
	if _, err := MineAbsolute(pairRuleDB(), 20, opt); err != nil {
		return -1
	}
	return pairsLoopTasks(opt.Trace)
}

// pairsLoopTasks is the number of tasks of trace's dataset/pairs loop,
// 0 without one.
func pairsLoopTasks(trace *Trace) int64 {
	for _, l := range trace.Loops {
		if l.Name == "dataset/pairs" {
			return l.Load.TotalTasks()
		}
	}
	return 0
}

// TestPairTablesBounded: the count's tables never hold more than four
// times the recoded rows plus 256 KB, however many workers the run has.
// On 2,048 rows cut into 16 first-pass chunks, 300 frequent items (a
// 179 KB table, rows of about 80 KB) count into three tables, not
// sixteen; 1,000 frequent items (a 2 MB table, rows of about 40 KB)
// combine every pair, although counting would be cheaper. Both mine
// FP-growth's answer, which counts no pairs.
func TestPairTablesBounded(t *testing.T) {
	for _, tc := range []struct {
		name          string
		db            *DB
		minSup, items int
		tasks         int64
	}{
		{"300 items", randomDB(7, 2048, 300, 16, 0, 1), 4, 300, 3},
		{"1000 items", randomDB(8, 2048, 1000, 8, 0, 1), 2, 1000, 0},
	} {
		if n := len(tc.db.Recode(tc.minSup).Items); n != tc.items {
			t.Fatalf("%s: %d frequent items", tc.name, n)
		}
		ref, err := MineAbsolute(tc.db, tc.minSup, Options{Algorithm: FPGrowth, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Algorithm: Eclat, Representation: Tidset, Workers: 16, Trace: &Trace{}}
		res, err := MineAbsolute(tc.db, tc.minSup, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := decodedDiff(res.Decoded(), ref.Decoded()); d != "" {
			t.Errorf("%s vs FP-growth: %s", tc.name, d)
		}
		if chunks := opt.Trace.Loops[0].Load.TotalTasks(); chunks != 16 {
			t.Fatalf("%s: the first pass ran %d chunks, want 16", tc.name, chunks)
		}
		if got := pairsLoopTasks(opt.Trace); got != tc.tasks {
			t.Errorf("%s: counted into %d tables, want %d", tc.name, got, tc.tasks)
		}
	}
}

// TestEclatPairLevelEvents: on both sides of the rule, Eclat's level 2
// is the loop eclat/pairs at level 2 over all n(n−1)/2 root pairs, with
// one task and one chunk per pair it combines: only the frequent ones
// where the rule counts (the others are Pruned), every pair where it
// combines. Its level_end counts the reference's frequent pairs.
func TestEclatPairLevelEvents(t *testing.T) {
	dense := runctlDB(t)
	for _, side := range []struct {
		db      *DB
		minSup  int
		kind    Representation
		counted bool
	}{
		{pairRuleDB(), 20, Tidset, true},
		{dense, dense.AbsoluteSupport(0.5), Bitvector, false},
	} {
		label := fmt.Sprintf("%s/%v", side.db.Name, side.kind)
		rec := &EventRecorder{}
		res, err := MineAbsolute(side.db, side.minSup, Options{Algorithm: Eclat, Representation: side.kind, Workers: 2, Observer: rec})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		n := len(res.Rec.Items)
		pairs, frequent := n*(n-1)/2, 0
		for _, c := range res.Counts {
			if len(c.Items) == 2 {
				frequent++
			}
		}
		var got []Event
		for _, e := range rec.Events() {
			if e.Phase == "eclat/pairs" {
				got = append(got, e)
			}
		}
		if len(got) != 3 || got[0].Type != EventLevelStart || got[1].Type != EventPhaseEnd || got[2].Type != EventLevelEnd {
			t.Fatalf("%s: eclat/pairs events %+v, want level_start, phase_end, level_end", label, got)
		}
		start, loop, end := got[0], got[1], got[2]
		if start.Level != 2 || start.Candidates != pairs || end.Level != 2 || end.Candidates != pairs || end.Frequent != frequent {
			t.Errorf("%s: level_start %+v, level_end %+v; want level 2, %d candidates, %d frequent", label, start, end, pairs, frequent)
		}
		combined := pairs
		if side.counted {
			combined = frequent
		}
		if end.Pruned != pairs-combined {
			t.Errorf("%s: pruned %d, want %d", label, end.Pruned, pairs-combined)
		}
		var tasks, chunks int64
		for _, w := range loop.Load {
			tasks, chunks = tasks+w.Tasks, chunks+w.Chunks
		}
		if tasks != int64(combined) || chunks != int64(combined) {
			t.Errorf("%s: %d tasks in %d chunks, want one each per combined pair (%d)", label, tasks, chunks, combined)
		}
	}
}
