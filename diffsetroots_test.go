package fim

// The diffset root contract: each root holds its item's shorter side,
// t(x) when 2·support ≤ |D| and D − t(x) otherwise, and every pair of
// sides combines to the ordinary diffset d(xy) = t(x) − t(y). Run under
// -race at GOMAXPROCS ≥ 2 it also checks the root build's chunk writes.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/sched"
	"repro/internal/tidset"
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
// side of its item, and that all four side pairs and the level-3
// children built from them hold the diffsets the recoded rows give, in
// blocks of every later sibling and of one, with a nil arena, a
// recycling one and one bounded at the run's minimum support.
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
			tids := make([]tidset.Set, len(rec.Items))
			for i := range tids {
				tids[i] = rowTIDs(rec, []int{i}, -1)
			}
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
					want = rowTIDs(rec, nil, i)
				}
				if !d.Diff.Equal(want) || d.Support() != len(tids[i]) {
					t.Errorf("%s: root %d (support %d of %d) holds the wrong side", label, i, len(tids[i]), D)
				}
			}
			if sides[0] == 0 || sides[1] == 0 || !onHalf {
				t.Fatalf("%s: roots %d sparse, %d dense, one on |D|/2: %v; want both sides and the half", label, sides[0], sides[1], onHalf)
			}

			// Level 2, every side pair: d(xy) = t(x) − t(y). Level 3 from
			// those pairs: d(xyz) = t(xy) − t(xz).
			pairs := map[[2]bool]int{}
			for _, a := range []*vertical.Arena{nil, vertical.NewArena(0), vertical.NewArena(rec.MinSup)} {
				for i := range roots {
					children := checkBlock(t, label, rec, rep, a, roots[i], []int{i}, roots[i+1:], seq(i+1, len(roots)))
					var items []int // a miner extends only the frequent children
					var frequent []vertical.Node
					for k, c := range children {
						j := i + 1 + k
						pairs[[2]bool{sparse[i], sparse[j]}]++
						checkBlock(t, label, rec, rep, a, roots[i], []int{i}, roots[j:j+1], []int{j})
						if c.Support() >= rec.MinSup {
							items, frequent = append(items, j), append(frequent, c)
						}
					}
					for k := range frequent {
						checkBlock(t, label, rec, rep, a, frequent[k], []int{i, items[k]}, frequent[k+1:], items[k+1:])
					}
				}
			}
			if order == dataset.ByCode && len(pairs) != 4 {
				t.Errorf("%s: side pairs %v, want all four", label, pairs)
			}
		}
	}
}

// rowTIDs scans rec's recoded rows for the TIDs of the rows that hold
// every item of has and, when lacks ≥ 0, not the item lacks.
func rowTIDs(rec *dataset.Recoded, has []int, lacks int) tidset.Set {
	var out tidset.Set
	for tid, row := range rec.DB.Transactions {
		ok := lacks < 0 || !row.Contains(itemset.Item(lacks))
		for _, it := range has {
			ok = ok && row.Contains(itemset.Item(it))
		}
		if ok {
			out = append(out, tidset.TID(tid))
		}
	}
	return out
}

// seq returns lo, lo+1, …, hi−1.
func seq(lo, hi int) []int {
	var s []int
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// checkBlock combines px, the node of the itemset prefix, against the
// siblings block, whose last items are items, in one CombineManyInto
// call through a. It compares each child with the
// diffset the rows give, d = t(prefix) − t(prefix ∪ {y}) for sibling
// item y; a child the rows put below a's minimum support need only
// report a support below it. It returns the children.
func checkBlock(t *testing.T, label string, rec *dataset.Recoded, rep vertical.Representation, a *vertical.Arena,
	px vertical.Node, prefix []int, block []vertical.Node, items []int) []vertical.Node {
	t.Helper()
	bound := 0
	if a != nil {
		bound = rec.MinSup
	}
	out := make([]vertical.Node, len(block))
	rep.CombineManyInto(px, block, out, a)
	for k, n := range out {
		y := items[k]
		got := n.(*vertical.DiffsetNode)
		sup := len(rowTIDs(rec, append(slices.Clone(prefix), y), -1))
		if sup < bound {
			if got.Support() >= bound {
				t.Errorf("%s: child %v+%d below %d reports %d", label, prefix, y, bound, got.Support())
			}
			continue
		}
		if want := rowTIDs(rec, prefix, y); !got.Diff.Equal(want) || got.Support() != sup {
			t.Errorf("%s: child %v+%d = %v (support %d), want %v (support %d)",
				label, prefix, y, got.Diff, got.Support(), want, sup)
		}
	}
	return out
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
			pairs := make([]vertical.Node, len(cured)-i-1)
			rep.CombineManyInto(cured[i], cured[i+1:], pairs, nil)
			for a, pij := range pairs {
				j := i + 1 + a
				if want := len(rowTIDs(rec, []int{i, j}, -1)); pij.Support() != want {
					t.Errorf("%v: support(%d,%d) = %d, want %d", kind, i, j, pij.Support(), want)
				}
				triples := make([]vertical.Node, len(pairs)-a-1)
				rep.CombineManyInto(pij, pairs[a+1:], triples, nil)
				for b, pijk := range triples {
					k := j + 1 + b
					if want := len(rowTIDs(rec, []int{i, j, k}, -1)); pijk.Support() != want {
						t.Errorf("%v: support(%d,%d,%d) = %d, want %d", kind, i, j, k, pijk.Support(), want)
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
