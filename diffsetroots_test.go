package fim

// The diffset root contract: each root holds its item's shorter side,
// t(x) when 2·support ≤ |D| and D − t(x) otherwise, and every pair of
// sides combines to the ordinary diffset d(xy) = t(x) − t(y). Run under
// -race at GOMAXPROCS ≥ 2 it also checks the root build's chunk writes.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/sched"
	"repro/internal/vertical"
)

// sidesDB returns a database of n rows in which item k+1 is in exactly
// sups[k] random rows.
func sidesDB(seed int64, n int, sups []int) *DB {
	r := rand.New(rand.NewSource(seed))
	rows := make([][]itemset.Item, n)
	for k, s := range sups {
		for _, tid := range r.Perm(n)[:s] {
			rows[tid] = append(rows[tid], itemset.Item(k+1))
		}
	}
	db := &DB{Name: fmt.Sprintf("sides%d", seed)}
	for _, row := range rows {
		db.Transactions = append(db.Transactions, itemset.New(row...))
	}
	return db
}

// TestDiffsetRootSides checks, over by-code and by-frequency recodes
// built on teams of 1 and 3, that every diffset root holds the shorter
// side of its item, that all four side pairs and the level-3 children
// built from them match tidset differences and intersections, and that
// CombineManyInto matches pairwise CombineInto over mixed blocks.
func TestDiffsetRootSides(t *testing.T) {
	// 200 rows: items on both sides of |D|/2 and one (support 100)
	// exactly on it. By code, a dense item precedes sparse ones, so the
	// by-code recode forms every side pair.
	db := sidesDB(11, 200, []int{170, 30, 100, 140, 60, 185, 12, 99, 101})
	D := len(db.Transactions)
	rep := vertical.New(vertical.Diffset)
	for _, order := range []dataset.ItemOrder{dataset.ByCode, dataset.ByFrequency} {
		for _, p := range []int{1, 3} {
			label := fmt.Sprintf("order %v/%d workers", order, p)
			pass := dataset.Pass{Team: sched.NewTeam(p)}
			rec, err := db.RecodeOn(pass, 10, order)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			roots, err := rep.RootsOn(rec, pass)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			tids := rec.TidsetOf()
			sparse := make([]bool, len(roots))
			var sides [2]int
			onHalf := false
			for i, r := range roots {
				d := r.(*vertical.DiffsetNode)
				sparse[i] = 2*len(tids[i]) <= D
				onHalf = onHalf || 2*len(tids[i]) == D
				want := tids[i]
				if sparse[i] {
					sides[0]++
				} else {
					sides[1]++
					want = tids[i].Complement(D)
				}
				if !d.Diff.Equal(want) || d.Support() != len(tids[i]) {
					t.Errorf("%s: root %d (support %d of %d) holds the wrong side", label, i, len(tids[i]), D)
				}
			}
			if sides[0] == 0 || sides[1] == 0 || !onHalf {
				t.Fatalf("%s: roots %d sparse, %d dense, one on |D|/2: %v; want both sides and the half", label, sides[0], sides[1], onHalf)
			}

			// Level 2, every side pair: d(xy) = t(x) − t(y).
			pairs := map[[2]bool]int{}
			pair := func(i, j int) vertical.Node {
				n := rep.Combine(roots[i], roots[j])
				want := tids[i].Diff(tids[j])
				if d := n.(*vertical.DiffsetNode); !d.Diff.Equal(want) || d.Support() != len(tids[i])-len(want) {
					t.Errorf("%s: d(%d,%d) != t(%d) − t(%d)", label, i, j, i, j)
				}
				return n
			}
			for i := range roots {
				for j := i + 1; j < len(roots); j++ {
					pairs[[2]bool{sparse[i], sparse[j]}]++
					pij := pair(i, j)
					// Level 3 from those pairs: d(xyz) = t(xy) − t(xz).
					tij := tids[i].Intersect(tids[j])
					for k := j + 1; k < len(roots); k++ {
						tik := tids[i].Intersect(tids[k])
						d := rep.Combine(pij, pair(i, k)).(*vertical.DiffsetNode)
						if want := tij.Diff(tik); !d.Diff.Equal(want) || d.Support() != len(tij)-len(want) {
							t.Errorf("%s: d(%d,%d,%d) != t(%d,%d) − t(%d,%d)", label, i, j, k, i, j, i, k)
						}
					}
				}
			}
			if order == dataset.ByCode && len(pairs) != 4 {
				t.Errorf("%s: side pairs %v, want all four", label, pairs)
			}

			// Batched blocks: roots (mixed sides) and level-2 children.
			arena := vertical.NewArena(0)
			for i := range roots {
				block := roots[i+1:]
				checkBlock(t, label, rep, arena, roots[i], block)
				children := make([]vertical.Node, len(block))
				for k, py := range block {
					children[k] = rep.Combine(roots[i], py)
				}
				if len(children) > 1 {
					checkBlock(t, label, rep, arena, children[0], children[1:])
				}
			}
		}
	}
}

// checkBlock compares CombineManyInto of px against block, with and
// without an arena, to pairwise Combine.
func checkBlock(t *testing.T, label string, rep vertical.Representation, arena *vertical.Arena, px vertical.Node, block []vertical.Node) {
	t.Helper()
	for _, a := range []*vertical.Arena{nil, arena} {
		out := make([]vertical.Node, len(block))
		rep.CombineManyInto(px, block, out, a)
		for k, py := range block {
			want := rep.Combine(px, py).(*vertical.DiffsetNode)
			got := out[k].(*vertical.DiffsetNode)
			if !got.Diff.Equal(want.Diff) || got.Support() != want.Support() {
				t.Errorf("%s: batched child %d = %v (support %d), pairwise %v (support %d)",
					label, k, got.Diff, got.Support(), want.Diff, want.Support())
			}
		}
		for _, n := range out {
			a.Release(n)
		}
	}
}

// TestDegradeRootShorterSide: for every Degradable kind, a degraded
// root holds its item's shorter side, so its Bytes() is exactly
// 4·min(sup, |D|−sup) and never more than the item's tidset; diffset
// combines over the degraded roots stay exact two levels deep.
func TestDegradeRootShorterSide(t *testing.T) {
	// Supports on both sides of |D|/2 = 64, one exactly on it, coded so
	// that every pair of sides occurs.
	rec := sidesDB(7, 128, []int{120, 16, 64, 90, 40, 100}).Recode(1)
	D := rec.Universe
	tids := rec.TidsetOf()
	rep := vertical.New(vertical.Diffset)
	for _, kind := range vertical.AllKinds() {
		if !vertical.Degradable(kind) {
			continue
		}
		roots := vertical.New(kind).Roots(rec)
		cured := make([]vertical.Node, len(roots))
		for i, r := range roots {
			cured[i] = vertical.DegradeRoot(r, D)
			sup := len(tids[i])
			if got, want := cured[i].Bytes(), 4*min(sup, D-sup); got != want {
				t.Errorf("%v root %d (support %d of %d): degraded bytes %d, want %d", kind, i, sup, D, got, want)
			}
			if cured[i].Bytes() > 4*sup {
				t.Errorf("%v root %d: degraded bytes %d exceed the tidset's %d", kind, i, cured[i].Bytes(), 4*sup)
			}
			if cured[i].Support() != sup {
				t.Errorf("%v root %d: degraded support %d, want %d", kind, i, cured[i].Support(), sup)
			}
		}
		for i := range cured {
			for j := i + 1; j < len(cured); j++ {
				tij := tids[i].Intersect(tids[j])
				pij := rep.Combine(cured[i], cured[j])
				if pij.Support() != len(tij) {
					t.Errorf("%v: support(%d,%d) = %d, want %d", kind, i, j, pij.Support(), len(tij))
				}
				for k := j + 1; k < len(cured); k++ {
					want := len(tij.Intersect(tids[k]))
					if got := rep.Combine(pij, rep.Combine(cured[i], cured[k])).Support(); got != want {
						t.Errorf("%v: support(%d,%d,%d) = %d, want %d", kind, i, j, k, got, want)
					}
				}
			}
		}
	}
}

// TestRootCureShrinksOrStops: for every Degradable kind, under Apriori
// and Eclat, a memory breach at the roots either degrades them to fewer
// live bytes or, when their diffsets would take no fewer bytes, stops
// the run with the memory *BudgetError and no degrade. Items in nearly
// every one of 2048 rows have complements shorter than any kind's roots;
// chess's 80-byte bitvector roots are shorter than their diffsets.
func TestRootCureShrinksOrStops(t *testing.T) {
	chess := runctlDB(t)
	inputs := []struct {
		db     *DB
		minSup int
	}{
		{sidesDB(3, 2048, []int{2040, 2030, 2000, 1990, 2045}), 1000},
		{chess, chess.AbsoluteSupport(0.5)},
	}
	outcomes := map[bool]int{}
	for _, in := range inputs {
		rec := in.db.RecodeOrdered(in.minSup, dataset.ByFrequency)
		for _, kind := range vertical.AllKinds() {
			if !vertical.Degradable(kind) {
				continue
			}
			roots := vertical.New(kind).Roots(rec)
			live, cured := vertical.NodesBytes(roots), int64(0)
			for _, r := range roots {
				cured += 4 * int64(min(r.Support(), rec.Universe-r.Support()))
			}
			shrinks := cured < live
			outcomes[shrinks]++
			for _, algo := range []Algorithm{Apriori, Eclat} {
				label := fmt.Sprintf("%s/%v/%v (roots %d B, cured %d B)", in.db.Name, algo, kind, live, cured)
				var rec EventRecorder
				res, err := MineAbsolute(in.db, in.minSup, Options{Algorithm: algo, Representation: kind, Workers: 2,
					MaxMemoryBytes: live - 1, DegradeToDiffset: true, Observer: &rec})
				degraded := rec.ByType(EventDegraded)
				if shrinks {
					if len(degraded) != 1 || degraded[0].Level != 1 || degraded[0].LiveBytes >= live {
						t.Errorf("%s: degraded events %+v, want one at level 1 below %d live bytes", label, degraded, live)
					}
					continue
				}
				var berr *BudgetError
				if !errors.As(err, &berr) || berr.Resource != "memory" {
					t.Errorf("%s: err = %v, want the memory *BudgetError", label, err)
				}
				if res.Degraded || len(degraded) != 0 {
					t.Errorf("%s: degraded to larger payloads", label)
				}
			}
		}
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Errorf("root cures shrink %d times, would grow %d times; want both", outcomes[true], outcomes[false])
	}
}
