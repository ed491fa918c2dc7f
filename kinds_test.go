package fim

// Miner-level equivalence harness for every representation: full mines
// over the real dataset comparing each kind against the flat tidset
// representation across algorithms, worker counts, flattening depths,
// loop schedules and batch modes. The vertical-level legs (payload
// equality per combine) live in internal/vertical; here the property is
// end-to-end — identical decoded (itemset, support) content — because
// everything above the representation is supposed to be
// representation-oblivious. Run under -race at GOMAXPROCS ≥ 2 this
// also checks that nodes shared between parallel tasks are never
// written after they are built.

import (
	"testing"

	"repro/internal/vertical"
)

// TestKindsMatchFlatMining: every (algorithm, workers, depth, schedule,
// batch) cell mines the same decoded itemsets and supports under every
// representation as under flat tidsets. Decoded views are compared, not
// Result.Equal, because nodeset mines under frequency order and its
// dense codes differ from a by-code run.
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
func checkKindsMatchFlat(t *testing.T, kinds ...vertical.Kind) {
	t.Helper()
	db := runctlDB(t)
	steal, err := ParseSchedulePolicy("steal")
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		algo     Algorithm
		workers  int
		depth    int
		steal    bool
		batchOff bool
	}
	var cells []cell
	for _, w := range []int{1, 4} {
		for _, batchOff := range []bool{false, true} {
			cells = append(cells, cell{Apriori, w, 0, false, batchOff})
			for _, depth := range []int{0, 2} {
				cells = append(cells, cell{Eclat, w, depth, false, batchOff})
			}
			cells = append(cells, cell{Eclat, w, 0, true, batchOff})
		}
	}
	for _, c := range cells {
		opt := Options{
			Algorithm:      c.algo,
			Representation: Tidset,
			Workers:        c.workers,
			EclatDepth:     c.depth,
			DisableBatch:   c.batchOff,
		}
		if c.steal {
			opt.SchedulePolicy, opt.SetSchedule = steal, true
		}
		flat, err := Mine(db, 0.5, opt)
		if err != nil {
			t.Fatalf("%+v flat: %v", c, err)
		}
		want := flat.Decoded()
		for _, kind := range kinds {
			opt.Representation = kind
			res, err := Mine(db, 0.5, opt)
			if err != nil {
				t.Fatalf("%+v %v: %v", c, kind, err)
			}
			got := res.Decoded()
			if len(got) != len(want) {
				t.Errorf("%+v %v: %d itemsets, flat mines %d", c, kind, len(got), len(want))
				continue
			}
			for i := range want {
				if !got[i].Items.Equal(want[i].Items) || got[i].Support != want[i].Support {
					t.Errorf("%+v %v: mismatch at %d: %v/%d, flat %v/%d",
						c, kind, i, got[i].Items, got[i].Support, want[i].Items, want[i].Support)
					break
				}
			}
		}
	}
}
