package dataset_test

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/datasets"
	"repro/internal/itemset"
	"repro/internal/sched"
)

// oracleRecode is the map-based first pass RecodeOrdered must reproduce:
// count supports in a map, code the frequent items through a second map,
// and give every transaction its own slice.
func oracleRecode(d *dataset.DB, minSup int, order dataset.ItemOrder) *dataset.Recoded {
	if minSup < 1 {
		minSup = 1
	}
	counts := d.ItemCounts()
	var keep []itemset.Item
	for it, c := range counts {
		if c >= minSup {
			keep = append(keep, it)
		}
	}
	if order == dataset.ByFrequency {
		slices.SortFunc(keep, func(a, b itemset.Item) int {
			if c := cmp.Compare(counts[a], counts[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	} else {
		slices.Sort(keep)
	}
	code := make(map[itemset.Item]itemset.Item, len(keep))
	items := make([]dataset.FrequentItem, len(keep))
	for i, it := range keep {
		code[it] = itemset.Item(i)
		items[i] = dataset.FrequentItem{Original: it, Support: counts[it]}
	}
	out := &dataset.DB{Name: d.Name, Transactions: make([]dataset.Transaction, len(d.Transactions))}
	for tid, tr := range d.Transactions {
		nt := make(dataset.Transaction, 0, len(tr))
		for _, it := range tr {
			if c, ok := code[it]; ok {
				nt = append(nt, c)
			}
		}
		slices.Sort(nt)
		out.Transactions[tid] = nt
	}
	return &dataset.Recoded{DB: out, Items: items, MinSup: minSup, Universe: len(d.Transactions)}
}

// sameRecode fails t unless RecodeOrdered matches the oracle on db.
func sameRecode(t *testing.T, name string, db *dataset.DB, minSup int, order dataset.ItemOrder) *dataset.Recoded {
	t.Helper()
	got, want := db.RecodeOrdered(minSup, order), oracleRecode(db, minSup, order)
	if !slices.Equal(got.Items, want.Items) {
		t.Fatalf("%s: items %v, want %v", name, got.Items, want.Items)
	}
	if got.MinSup != want.MinSup || got.Universe != want.Universe || got.DB.Name != want.DB.Name {
		t.Fatalf("%s: MinSup/Universe/Name %d/%d/%q, want %d/%d/%q", name,
			got.MinSup, got.Universe, got.DB.Name, want.MinSup, want.Universe, want.DB.Name)
	}
	if len(got.DB.Transactions) != len(want.DB.Transactions) {
		t.Fatalf("%s: %d transactions, want %d", name, len(got.DB.Transactions), len(want.DB.Transactions))
	}
	for tid, tr := range got.DB.Transactions {
		if !slices.Equal(tr, want.DB.Transactions[tid]) {
			t.Fatalf("%s: transaction %d = %v, want %v", name, tid, tr, want.DB.Transactions[tid])
		}
		if tr == nil {
			t.Fatalf("%s: transaction %d is nil", name, tid)
		}
	}
	return got
}

var orders = []dataset.ItemOrder{dataset.ByCode, dataset.ByFrequency}

// TestRecodeMatchesOracle checks RecodeOrdered against the map-based
// oracle on every generator, both orders and three supports.
func TestRecodeMatchesOracle(t *testing.T) {
	for _, def := range datasets.All() {
		db := def.Build(0.01)
		for _, order := range orders {
			for _, rel := range []float64{0.05, def.DefaultSupport, 0.9} {
				sameRecode(t, fmt.Sprintf("%s/order=%d/support=%g", def.Name, order, rel),
					db, db.AbsoluteSupport(rel), order)
			}
		}
	}
}

// TestRecodeEdgeDatabases covers the inputs the generators never make:
// ids near 2^32-1 (the sparse-id fallback), empty and all-infrequent
// databases, rows that filtering empties, and both row-bitmap widths at
// their boundary (64 and 65 frequent items) and well past it, with
// supports that fall as ids rise so frequency order reverses every row.
func TestRecodeEdgeDatabases(t *testing.T) {
	top := itemset.Item(math.MaxUint32)
	cases := []struct {
		name   string
		trs    []dataset.Transaction
		minSup int
		items  int // frequent items, the edge the case exists for
	}{
		{"sparse-ids", []dataset.Transaction{
			itemset.New(0, 7, top), itemset.New(7, top-1, top), itemset.New(3, top-1),
			itemset.New(top), itemset.New(0, 3, 7),
		}, 2, 5},
		{"sparse-ids-minsup-1", []dataset.Transaction{itemset.New(1, top), itemset.New(1 << 31)}, 1, 3},
		{"empty", nil, 1, 0},
		{"all-infrequent", []dataset.Transaction{itemset.New(1), itemset.New(2, 3), itemset.New(4)}, 2, 0},
		{"emptied-rows", []dataset.Transaction{
			itemset.New(1, 2), itemset.New(9), itemset.New(1, 5), itemset.New(), itemset.New(6, 8), itemset.New(2),
		}, 2, 2},
		{"falling-64", fallingRows(64, 1), 2, 64},
		{"falling-65", fallingRows(65, 1), 2, 65},
		{"falling-200", fallingRows(200, 1), 2, 200},
		{"sparse-falling-65", fallingRows(65, 1<<24), 2, 65},
		{"sparse-falling-200", fallingRows(200, 1<<24), 2, 200},
	}
	for _, tc := range cases {
		db := &dataset.DB{Name: tc.name, Transactions: tc.trs}
		for _, order := range orders {
			rec := sameRecode(t, fmt.Sprintf("%s/order=%d", tc.name, order), db, tc.minSup, order)
			if len(rec.Items) != tc.items {
				t.Errorf("%s: %d frequent items, want %d", tc.name, len(rec.Items), tc.items)
			}
			if tc.name == "emptied-rows" {
				// Rows 1, 3 and 4 hold only infrequent items (or none) and
				// keep their TIDs, so the kept rows stay at 0, 2 and 5.
				for tid, want := range []int{2, 0, 1, 0, 0, 1} {
					if got := len(rec.DB.Transactions[tid]); got != want {
						t.Errorf("%s: row %d has %d items, want %d", tc.name, tid, got, want)
					}
				}
			}
		}
	}
}

// fallingRows builds n+1 rows over the items i*stride, i < n, where item
// i sits in the first n-i+1 rows: support falls as the id rises, so
// frequency order reverses the id order of every row. Each row also
// holds one item of its own (support 1), and an empty row and a row of
// only those single-support items follow. At minsup 2 exactly the n
// strided items are frequent; a stride of 2^24 makes the ids sparse.
func fallingRows(n int, stride itemset.Item) []dataset.Transaction {
	own := itemset.Item(n) * stride
	var trs []dataset.Transaction
	for r := 0; r <= n; r++ {
		row := []itemset.Item{own + itemset.Item(r)}
		for i := 0; i < n-max(r, 1)+1; i++ {
			row = append(row, itemset.Item(i)*stride)
		}
		trs = append(trs, itemset.New(row...))
	}
	return append(trs, itemset.New(), itemset.New(own+itemset.Item(n)+1, own+itemset.Item(n)+2))
}

// TestCountTablesBoundedByTeam: the count keeps one table per chunk,
// so the switch to maps weighs the team. 250 rows of 4 items spread
// over ids up to 40000 fit one dense table within the input plus the
// sparse slack, but not two: from two chunks on they count in maps,
// allocating less than the one table, and recode as the oracle does.
func TestCountTablesBoundedByTeam(t *testing.T) {
	db := &dataset.DB{Name: "spread"}
	for r := 0; r < 250; r++ {
		db.Transactions = append(db.Transactions, itemset.New(
			itemset.Item(r%10), itemset.Item(100+r%7), itemset.Item(160*r), 40000))
	}
	want := oracleRecode(db, 2, dataset.ByFrequency)
	// countBytes recodes on a team of p and returns the bytes the count
	// tables took, from the count loop's modelled half.
	countBytes := func(p int) int64 {
		record := &sched.Record{}
		got, err := db.RecodeOn(dataset.Pass{Team: sched.NewTeam(p), Record: record}, 2, dataset.ByFrequency)
		if err != nil {
			t.Fatalf("%d workers: %v", p, err)
		}
		if !slices.Equal(got.Items, want.Items) {
			t.Fatalf("%d workers: items %v, want %v", p, got.Items, want.Items)
		}
		for tid, tr := range got.DB.Transactions {
			if !slices.Equal(tr, want.DB.Transactions[tid]) {
				t.Fatalf("%d workers: transaction %d = %v, want %v", p, tid, tr, want.DB.Transactions[tid])
			}
		}
		count := record.Loops[0]
		if count.Name != "dataset/count" || len(count.Load.Workers) != min(p, 4) {
			t.Fatalf("%d workers: first loop %q ran on %d workers", p, count.Name, len(count.Load.Workers))
		}
		return count.Model.TotalAlloc()
	}
	one := countBytes(1)
	if one != 4*40001 {
		t.Errorf("one worker: count tables took %d bytes, want one dense table of %d", one, 4*40001)
	}
	for _, p := range []int{2, 3} {
		if b := countBytes(p); b >= one {
			t.Errorf("%d workers: count tables took %d bytes, one table takes %d", p, b, one)
		}
	}
}

// TestCountTablesWithinBound measures what RecodeOn allocates besides
// its output: the count tables, their merge and the bookkeeping must
// stay within 4·(occurrences + 2^16) bytes on any team. 4000 rows of 4
// items over ids up to 40000 fit two dense tables in that bound but not
// three, so a team of two counts densely and must merge in place.
func TestCountTablesWithinBound(t *testing.T) {
	db := &dataset.DB{Name: "spread"}
	for r := 0; r < 4000; r++ {
		db.Transactions = append(db.Transactions, itemset.New(
			itemset.Item(r%10), itemset.Item(100+r%7), itemset.Item(200+9*r), 40000))
	}
	const occurrences, bound = 4 * 4000, 4 * (4*4000 + 1<<16)
	const bookkeeping = 32 << 10 // chunks, per-chunk code counts, items, team loops
	for _, p := range []int{1, 2, 3, 4} {
		team := sched.NewTeam(p)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := db.RecodeOn(dataset.Pass{Team: team}, 2, dataset.ByFrequency)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%d workers: %v", p, err)
		}
		output := 24 * len(got.DB.Transactions)
		for _, tr := range got.DB.Transactions {
			output += 4 * len(tr)
		}
		extra := int(after.TotalAlloc-before.TotalAlloc) - output
		if extra > bound+bookkeeping {
			t.Errorf("%d workers: %d bytes besides the output, bound %d for %d occurrences", p, extra, bound, occurrences)
		}
	}
}

// TestRecodedTransactionsAreCapped checks that the transactions sharing
// one backing array cannot overwrite each other through append.
func TestRecodedTransactionsAreCapped(t *testing.T) {
	db := &dataset.DB{Transactions: []dataset.Transaction{
		itemset.New(1, 2), itemset.New(9), itemset.New(1, 2, 3), itemset.New(2, 3),
	}}
	for _, order := range orders {
		rec := db.RecodeOrdered(1, order)
		next := slices.Clone(rec.DB.Transactions[1])
		_ = append(rec.DB.Transactions[0], 99)
		if !slices.Equal(rec.DB.Transactions[1], next) {
			t.Fatalf("order=%d: appending to transaction 0 changed transaction 1 to %v", order, rec.DB.Transactions[1])
		}
	}
}

// accidentsFIMI is the FIMI text of an accidents-shaped database: tall,
// about 34 items per row over a few hundred ids.
func accidentsFIMI(b *testing.B) []byte {
	var buf bytes.Buffer
	if err := dataset.WriteFIMI(&buf, datasets.Accidents(0.1)); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkRecodeOrdered times the first pass at the supports fim.Mine
// recodes at on the accidents_tall workload (at most 64 frequent items,
// one-word row bitmaps) and the t40_wide workload (333 frequent items,
// six-word row bitmaps).
func BenchmarkRecodeOrdered(b *testing.B) {
	shapes := []struct {
		name    string
		db      *dataset.DB
		support float64
	}{
		{"accidents", datasets.Accidents(0.1), 0.20},
		{"t40", datasets.T40I10D100K(0.05), 0.04},
	}
	for _, sh := range shapes {
		minSup := sh.db.AbsoluteSupport(sh.support)
		for _, order := range orders {
			name := sh.name + "/ByCode"
			if order == dataset.ByFrequency {
				name = sh.name + "/ByFrequency"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink = sh.db.RecodeOrdered(minSup, order)
				}
			})
		}
	}
}

// BenchmarkReadFIMI times parsing accidents-shaped FIMI text.
func BenchmarkReadFIMI(b *testing.B) {
	text := accidentsFIMI(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := dataset.ReadFIMI("accidents", bytes.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		sink = db
	}
}

var sink any
