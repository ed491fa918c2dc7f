package fim

// The first pass on a team: the count, the recode, every kind's root
// build and FP-growth's chunk trees run over row chunks of the run's
// team, and a team of any size must build exactly what a team of one
// builds, or mine exactly what it mines. Run under -race at
// GOMAXPROCS ≥ 2 this also checks that the chunks' writes are disjoint.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/sched"
	"repro/internal/tidset"
	"repro/internal/verify"
	"repro/internal/vertical"
)

// firstPassCase is one input of the team-invariance test: a database,
// the absolute support it is recoded at and, when higher, the support
// FP-growth mines the recode at (0: the recode's).
type firstPassCase struct {
	name   string
	db     *DB
	minSup int
	fpSup  int
}

// randomDB returns n rows of up to width distinct items drawn from
// [0, items), each item id multiplied by stride, every skip-th row left
// empty (skip 0 leaves none empty). Item 0 is also in four of five
// non-empty rows, so the frequent items lie on both sides of half the
// rows, the two sides a diffset root can store.
func randomDB(seed int64, n, items, width, skip int, stride itemset.Item) *DB {
	r := rand.New(rand.NewSource(seed))
	db := &DB{Name: fmt.Sprintf("rand%d", seed)}
	for i := 0; i < n; i++ {
		var row []itemset.Item
		if skip == 0 || i%skip != 0 {
			for j := r.Intn(width + 1); j > 0; j-- {
				row = append(row, itemset.Item(r.Intn(items))*stride)
			}
			if r.Intn(5) < 4 {
				row = append(row, 0)
			}
		}
		db.Transactions = append(db.Transactions, itemset.New(row...))
	}
	return db
}

func firstPassCases() []firstPassCase {
	return []firstPassCase{
		// 1000 rows: not a multiple of 64, at most 40 frequent items (the
		// one-word row bitmap).
		{"odd-rows", randomDB(1, 1000, 40, 12, 0, 1), 20, 0},
		// More than 64 frequent items: the multi-word row bitmap. At 5 the
		// answer has 126k itemsets, past what the exhaustive reference can
		// check, so FP-growth mines the chunk trees of all 150 items at 30.
		{"wide", randomDB(2, 777, 150, 40, 0, 1), 5, 30},
		// Fewer rows than 64 per worker: fewer chunks than workers.
		{"short", randomDB(3, 100, 20, 8, 0, 1), 3, 0},
		// Every third row empty, and rows left empty by the recode.
		{"empty-rows", randomDB(4, 450, 60, 6, 3, 1), 16, 0},
		// No item reaches the support: zero frequent items.
		{"none-frequent", randomDB(5, 300, 30, 5, 0, 1), 301, 0},
		// Ids far sparser than the data: the map count.
		{"sparse-ids", randomDB(6, 600, 50, 10, 0, 1_000_003), 40, 0},
		{"empty", &DB{Name: "empty"}, 1, 0},
	}
}

// TestFirstPassTeamInvariant: for teams of 1, 2, 3 and 5 workers, the
// recode's frequent items and rows (each capped at its own end) and the
// roots of every kind are identical to a team of one's, and FP-growth
// over that team's chunk trees mines the reference answer by decoded
// content. Every input with frequent items has them on both sides of
// |D|/2, so the diffset roots store tidsets and complements both.
func TestFirstPassTeamInvariant(t *testing.T) {
	for _, tc := range firstPassCases() {
		base := tc.db.RecodeOrdered(tc.minSup, dataset.ByFrequency)
		var sparse, dense int
		for _, fi := range base.Items {
			if 2*fi.Support <= base.Universe {
				sparse++
			} else {
				dense++
			}
		}
		if len(base.Items) > 0 && (sparse == 0 || dense == 0) {
			t.Errorf("%s: %d sparse and %d dense frequent items, want both", tc.name, sparse, dense)
		}
		roots := map[vertical.Kind][]vertical.Node{}
		for _, kind := range vertical.AllKinds() {
			roots[kind] = vertical.New(kind).Roots(base)
		}
		if sets := base.TidsetOf(); !reflect.DeepEqual(roots[Tidset], tidsetNodes(sets)) {
			t.Errorf("%s: tidset roots differ from the inverted index", tc.name)
		}
		fpSup := max(tc.minSup, tc.fpSup)
		want, ok := firstPassReference[tc.name]
		if !ok {
			want = verify.Reference(base, fpSup).Decoded()
			firstPassReference[tc.name] = want
		}
		for _, p := range []int{1, 2, 3, 5} {
			label := fmt.Sprintf("%s/%d workers", tc.name, p)
			pass := dataset.Pass{Team: sched.NewTeam(p)}
			rec, err := tc.db.RecodeOn(pass, tc.minSup, dataset.ByFrequency)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if want := min(p, (len(tc.db.Transactions)+63)/64); len(rec.Chunks()) != max(1, want) {
				t.Errorf("%s: %d chunks, want %d", label, len(rec.Chunks()), max(1, want))
			}
			if !slices.Equal(rec.Items, base.Items) {
				t.Fatalf("%s: items %v, want %v", label, rec.Items, base.Items)
			}
			for tid, row := range rec.DB.Transactions {
				if !slices.Equal(row, base.DB.Transactions[tid]) || row == nil || cap(row) != len(row) {
					t.Fatalf("%s: row %d = %v (cap %d), want %v capped", label, tid, row, cap(row), base.DB.Transactions[tid])
				}
			}
			for _, kind := range vertical.AllKinds() {
				got, err := vertical.New(kind).RootsOn(rec, pass)
				if err != nil {
					t.Fatalf("%s/%v: %v", label, kind, err)
				}
				if !reflect.DeepEqual(got, roots[kind]) {
					t.Errorf("%s/%v: roots differ from a team of one's", label, kind)
				}
			}
			res, err := fpgrowth.Mine(rec, fpSup, core.Options{Workers: p})
			if err != nil {
				t.Fatalf("%s/fpgrowth: %v", label, err)
			}
			if d := decodedDiff(res.Decoded(), want); d != "" {
				t.Errorf("%s/fpgrowth: %s", label, d)
			}
		}
	}
}

// firstPassReference holds each case's reference answer for the rest of
// the process: the exhaustive miner takes seconds under -race, and
// -count reruns the test over the same inputs.
var firstPassReference = map[string][]ItemsetCount{}

func tidsetNodes(sets []tidset.Set) []vertical.Node {
	nodes := make([]vertical.Node, len(sets))
	for i, s := range sets {
		nodes[i] = &vertical.TidsetNode{TIDs: s}
	}
	return nodes
}
