package dataset_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/datasets"
	"repro/internal/itemset"
	"repro/internal/sched"
)

// brutePairs is what PairCounts must return: for every pair of codes
// i < j, at slot PairIndex(i, j, n), the rows that hold both, found by
// testing every pair against every row.
func brutePairs(rec *dataset.Recoded) []uint32 {
	n := len(rec.Items)
	counts := make([]uint32, dataset.PairSlots(n))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, tr := range rec.DB.Transactions {
				if slices.Contains(tr, itemset.Item(i)) && slices.Contains(tr, itemset.Item(j)) {
					counts[dataset.PairIndex(i, j, n)]++
				}
			}
		}
	}
	return counts
}

// rowPairs is Σ C(|row|, 2) over rows [lo, hi).
func rowPairs(rows []dataset.Transaction, lo, hi int) int {
	s := 0
	for _, tr := range rows[lo:hi] {
		s += len(tr) * (len(tr) - 1) / 2
	}
	return s
}

// samePairs fails t unless rec's chunks carry their rows' pair sums and
// PairCounts on a team of p, into at most tables tables, matches the
// brute-force count, recording one dataset/pairs loop with one task per
// table and a modelled half whose work is the rows read, the pair
// increments and the tables written.
func samePairs(t *testing.T, name string, rec *dataset.Recoded, p, tables int) {
	t.Helper()
	rows := rec.DB.Transactions
	occurrences, pairs := 0, 0
	for c, ch := range rec.Chunks() {
		if want := rowPairs(rows, ch.Lo, ch.Hi); ch.Pairs != want {
			t.Fatalf("%s: chunk %d [%d, %d) holds %d pairs, want %d", name, c, ch.Lo, ch.Hi, ch.Pairs, want)
		}
		pairs += ch.Pairs
	}
	for _, tr := range rows {
		occurrences += len(tr)
	}
	record := &sched.Record{}
	got, err := rec.PairCounts(dataset.Pass{Team: sched.NewTeam(p), Record: record}, tables)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := brutePairs(rec); !slices.Equal(got, want) {
		t.Fatalf("%s: pair counts %v, want %v", name, got, want)
	}
	if len(record.Loops) != 1 || record.Loops[0].Name != "dataset/pairs" {
		t.Fatalf("%s: loops %v, want one dataset/pairs", name, record.Loops)
	}
	l := record.Loops[0]
	used := int64(max(1, min(tables, len(rec.Chunks()))))
	if l.Load == nil || l.Load.TotalTasks() != used || l.Model == nil {
		t.Fatalf("%s: load %+v, model %+v; want %d tasks and a modelled half", name, l.Load, l.Model, used)
	}
	var work int64
	for _, w := range l.Model.Work {
		work += w
	}
	if want := 4*int64(occurrences+pairs) + used*4*int64(len(got)); work != want {
		t.Fatalf("%s: modelled work %d bytes, want %d", name, work, want)
	}
}

// randomDB draws rows rows over items items, each item in a row with
// probability density.
func randomDB(r *rand.Rand, rows, items int, density float64) *dataset.DB {
	db := &dataset.DB{Name: "rand"}
	for range rows {
		var tr []itemset.Item
		for it := range items {
			if r.Float64() < density {
				tr = append(tr, itemset.Item(it))
			}
		}
		db.Transactions = append(db.Transactions, itemset.New(tr...))
	}
	return db
}

// TestPairCountsMatchBruteForce checks Chunk.Pairs and PairCounts
// against brute force on random databases recoded on teams of 1–5 and
// counted on teams of 1–5, into one table per chunk and into fewer
// (0–2 tables, so merged chunks and the one-table floor), on the same
// rows assembled by hand (one
// chunk, its Pairs computed by Chunks), and on n = 0, 1 and 2 frequent
// items.
func TestPairCountsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for trial := range 12 {
		db := randomDB(r, 1+r.Intn(400), 1+r.Intn(40), 0.05+0.6*r.Float64())
		minSup := 1 + r.Intn(len(db.Transactions)/4+1)
		for p := 1; p <= 5; p++ {
			rec, err := db.RecodeOn(dataset.Pass{Team: sched.NewTeam(p)}, minSup, dataset.ByFrequency)
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, fmt.Sprintf("trial %d, recoded on %d", trial, p), rec, 1+(trial+p)%5, p)
			samePairs(t, fmt.Sprintf("trial %d, recoded on %d, %d tables", trial, p, trial%3), rec, 1+trial%5, trial%3)
			byHand := &dataset.Recoded{DB: rec.DB, Items: rec.Items, MinSup: rec.MinSup, Universe: rec.Universe}
			if len(byHand.Chunks()) != 1 {
				t.Fatalf("trial %d: a hand-assembled Recoded reads as %d chunks", trial, len(byHand.Chunks()))
			}
			samePairs(t, fmt.Sprintf("trial %d, by hand", trial), byHand, p, p)
		}
	}

	rows := []dataset.Transaction{itemset.New(1, 2, 3), itemset.New(1, 2), itemset.New(2), itemset.New(1, 2, 9)}
	for _, tc := range []struct {
		minSup, n int
	}{{5, 0}, {4, 1}, {3, 2}} {
		db := &dataset.DB{Name: "small", Transactions: rows}
		for p := 1; p <= 3; p++ {
			rec := db.RecodeOrdered(tc.minSup, dataset.ByFrequency)
			if len(rec.Items) != tc.n {
				t.Fatalf("minsup %d: %d frequent items, want %d", tc.minSup, len(rec.Items), tc.n)
			}
			samePairs(t, fmt.Sprintf("n=%d on %d", tc.n, p), rec, p, p)
		}
	}
	samePairs(t, "empty", (&dataset.DB{}).RecodeOrdered(1, dataset.ByFrequency), 2, 2)
}

// TestPairIndexIsTheTriangle: PairIndex numbers the pairs of n codes
// 0..PairSlots(n)−1 in ascending (i, j) order.
func TestPairIndexIsTheTriangle(t *testing.T) {
	for n := range 9 {
		slot := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if got := dataset.PairIndex(i, j, n); got != slot {
					t.Fatalf("n=%d: PairIndex(%d, %d) = %d, want %d", n, i, j, got, slot)
				}
				slot++
			}
		}
		if dataset.PairSlots(n) != slot {
			t.Fatalf("n=%d: PairSlots = %d, want %d", n, dataset.PairSlots(n), slot)
		}
	}
}

// BenchmarkPairCounts times the serial pair count at the supports
// fim.Mine mines the t40_wide (333 frequent items) and accidents_tall
// workloads at.
func BenchmarkPairCounts(b *testing.B) {
	shapes := []struct {
		name    string
		db      *dataset.DB
		support float64
	}{
		{"t40", datasets.T40I10D100K(0.05), 0.04},
		{"accidents", datasets.Accidents(0.1), 0.20},
	}
	for _, sh := range shapes {
		rec := sh.db.RecodeOrdered(sh.db.AbsoluteSupport(sh.support), dataset.ByFrequency)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				counts, err := rec.PairCounts(dataset.Pass{}, 1)
				if err != nil {
					b.Fatal(err)
				}
				sink = counts
			}
		})
	}
}
