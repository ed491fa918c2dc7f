package fim

// Miner-level equivalence harness for every representation: full mines
// over the real dataset comparing each kind against the flat tidset
// representation across algorithms, worker counts and flattening
// depths. The vertical-level legs (payload equality per combine) live
// in internal/vertical; here the property is end-to-end — identical
// decoded (itemset, support) content — because everything above the
// representation is supposed to be representation-oblivious. Run under
// -race at GOMAXPROCS ≥ 2 this also checks that nodes shared between
// parallel tasks are never written after they are built.

import (
	"fmt"
	"testing"

	"repro/internal/itemset"
	"repro/internal/verify"
	"repro/internal/vertical"
)

// TestKindsMatchFlatMining: every (algorithm, workers, depth) cell mines
// the same decoded itemsets and supports under every representation as
// under flat tidsets. Decoded views are compared, not Result.Equal, so
// the check holds whatever dense codes a run mines under.
func TestKindsMatchFlatMining(t *testing.T) {
	var kinds []vertical.Kind
	for _, kind := range vertical.AllKinds() {
		if kind != Tidset {
			kinds = append(kinds, kind)
		}
	}
	checkKindsMatchFlat(t, kinds...)
}

// TestTiledMatchesFlatMining is the tiled leg of the harness on its own,
// for bisecting a tiled-only regression.
func TestTiledMatchesFlatMining(t *testing.T) { checkKindsMatchFlat(t, Tiled) }

// TestNodesetMatchesFlatMining is the nodeset leg of the harness on its
// own, the one to repeat at GOMAXPROCS=2 when chasing a sharing race.
func TestNodesetMatchesFlatMining(t *testing.T) { checkKindsMatchFlat(t, Nodeset) }

// checkKindsMatchFlat mines every harness cell under flat tidsets and
// under each of kinds, and fails on any difference in decoded content.
// The flat result of every cell is itself checked against the
// independent reference miner, so a defect shared by every kind (in the
// combine loop or a schedule, say) cannot pass as agreement.
func checkKindsMatchFlat(t *testing.T, kinds ...vertical.Kind) {
	t.Helper()
	db := runctlDB(t)
	minSup := db.AbsoluteSupport(0.5)
	ref := verify.Reference(db.Recode(minSup), minSup).Decoded()
	type cell struct {
		algo    Algorithm
		workers int
		depth   int
	}
	var cells []cell
	for _, w := range []int{1, 4} {
		cells = append(cells, cell{Apriori, w, 0})
		for _, depth := range []int{0, 1, 2} {
			cells = append(cells, cell{Eclat, w, depth})
		}
	}
	for _, c := range cells {
		opt := Options{
			Algorithm:      c.algo,
			Representation: Tidset,
			Workers:        c.workers,
			EclatDepth:     c.depth,
		}
		flat, err := MineAbsolute(db, minSup, opt)
		if err != nil {
			t.Fatalf("%+v flat: %v", c, err)
		}
		want := flat.Decoded()
		if d := decodedDiff(want, ref); d != "" {
			t.Errorf("%+v flat vs reference: %s", c, d)
		}
		for _, kind := range kinds {
			opt.Representation = kind
			res, err := MineAbsolute(db, minSup, opt)
			if err != nil {
				t.Fatalf("%+v %v: %v", c, kind, err)
			}
			if d := decodedDiff(res.Decoded(), want); d != "" {
				t.Errorf("%+v %v vs flat: %s", c, kind, d)
			}
		}
	}
}

// TestEdgeDatabasesMatchReference mines databases at the edges the
// harness above never reaches, with every kind under both level-wise
// miners and 1 and 2 workers, and compares decoded content with the
// reference miner:
//   - more frequent items than nodeset's pair matrix covers (512), so
//     every nodeset pair support comes from a merge;
//   - minsup = |D|;
//   - no item frequent, so every transaction is empty after filtering.
func TestEdgeDatabasesMatchReference(t *testing.T) {
	cases := []struct {
		name   string
		db     *DB
		minSup int
		items  int // frequent items, the edge the case exists for
	}{
		{"over-pair-matrix", pairMatrixOverflowDB(), 2, 520},
		{"minsup-all", &DB{Name: "minsup-all", Transactions: []itemset.Itemset{
			itemset.New(1, 2, 3, 5), itemset.New(1, 2, 3, 4, 7), itemset.New(1, 2, 3, 6),
			itemset.New(0, 1, 2, 3, 5), itemset.New(1, 2, 3, 4, 5, 6),
		}}, 5, 3},
		{"all-filtered", &DB{Name: "all-filtered", Transactions: []itemset.Itemset{
			itemset.New(1), itemset.New(2, 3), itemset.New(4), itemset.New(5, 6, 7),
		}}, 2, 0},
	}
	for _, tc := range cases {
		rec := tc.db.Recode(tc.minSup)
		if len(rec.Items) != tc.items {
			t.Fatalf("%s: %d frequent items, want %d", tc.name, len(rec.Items), tc.items)
		}
		want := verify.Reference(rec, tc.minSup).Decoded()
		for _, kind := range vertical.AllKinds() {
			for _, algo := range []Algorithm{Apriori, Eclat} {
				for _, workers := range []int{1, 2} {
					opt := Options{Algorithm: algo, Representation: kind, Workers: workers}
					res, err := MineAbsolute(tc.db, tc.minSup, opt)
					if err != nil {
						t.Fatalf("%s %v/%v x%d: %v", tc.name, algo, kind, workers, err)
					}
					if d := decodedDiff(res.Decoded(), want); d != "" {
						t.Errorf("%s %v/%v x%d vs reference: %s", tc.name, algo, kind, workers, d)
					}
				}
			}
		}
	}
}

// pairMatrixOverflowDB builds 520 items over 20 transactions, each item
// in exactly two of them: item i sits in the (i mod 190)-th pair of
// transactions. At minsup 2 every item is frequent, and a pair (or
// triple) is frequent exactly when its items share a transaction pair,
// so the answer stays near 1,100 itemsets and the reference miner cheap.
func pairMatrixOverflowDB() *DB {
	const rows, items = 20, 520
	var pairs [][2]int
	for a := 0; a < rows; a++ {
		for b := a + 1; b < rows; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	tx := make([][]itemset.Item, rows)
	for i := 0; i < items; i++ {
		p := pairs[i%len(pairs)]
		tx[p[0]] = append(tx[p[0]], itemset.Item(i))
		tx[p[1]] = append(tx[p[1]], itemset.Item(i))
	}
	db := &DB{Name: "over-pair-matrix"}
	for _, r := range tx {
		db.Transactions = append(db.Transactions, itemset.New(r...))
	}
	return db
}

// decodedDiff describes the first difference between two decoded
// views, or returns "" when they hold the same itemsets and supports.
func decodedDiff(got, want []ItemsetCount) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d itemsets, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Items.Equal(want[i].Items) || got[i].Support != want[i].Support {
			return fmt.Sprintf("mismatch at %d: %v/%d, want %v/%d",
				i, got[i].Items, got[i].Support, want[i].Items, want[i].Support)
		}
	}
	return ""
}
