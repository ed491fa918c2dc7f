package trie

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/sched"
)

// checkFirst asserts the First invariants of level l under the level
// above it: First has one entry per node above and one more, its run p
// holds exactly the rows whose parent is p, in ascending item order,
// and those runs cover [0, Len()). For candidates (py non-nil) the
// sibling Py[c] is a later row of the level above with c's item.
func checkFirst(t *testing.T, above, l *Level, py []int32) {
	t.Helper()
	if len(l.First) != above.Len()+1 || l.First[0] != 0 || l.First[above.Len()] != int32(l.Len()) {
		t.Fatalf("level %d: First = %v over %d nodes, %d rows", l.K, l.First, above.Len(), l.Len())
	}
	for p := 0; p < above.Len(); p++ {
		for c := l.First[p]; c < l.First[p+1]; c++ {
			if l.Parents[c] != int32(p) {
				t.Fatalf("level %d: row %d in run %d has parent %d", l.K, c, p, l.Parents[c])
			}
			if c > l.First[p] && l.Items[c] <= l.Items[c-1] {
				t.Fatalf("level %d: run %d items do not ascend at row %d", l.K, p, c)
			}
			if py != nil && (py[c] <= l.Parents[c] || above.Items[py[c]] != l.Items[c]) {
				t.Fatalf("level %d: row %d has prefix %d, sibling %d, item %d", l.K, c, l.Parents[c], py[c], l.Items[c])
			}
		}
	}
}

// checkCommitted asserts that the top level of tr holds its First
// invariants and no spare capacity: Commit copies the survivors out of
// the candidate arrays at their exact size.
func checkCommitted(t *testing.T, tr *Trie) {
	t.Helper()
	l := tr.Levels[len(tr.Levels)-1]
	checkFirst(t, tr.Levels[len(tr.Levels)-2], l, nil)
	if cap(l.Items) != len(l.Items) || cap(l.Parents) != len(l.Parents) ||
		cap(l.Supports) != len(l.Supports) || cap(l.First) != len(l.First) {
		t.Fatalf("level %d: committed arrays carry spare capacity", l.K)
	}
}

// checkPairSlots asserts that generation 2's row t is the pair slot t
// of dataset.PairIndex, which core.LevelTwo's keep is indexed by.
func checkPairSlots(t *testing.T, c *Candidates) {
	t.Helper()
	n := len(c.First) - 1
	for r := 0; r < c.Len(); r++ {
		if dataset.PairIndex(int(c.Parents[r]), int(c.Py[r]), n) != r {
			t.Fatalf("generation 2 row %d is pair (%d, %d)", r, c.Parents[r], c.Py[r])
		}
	}
}

// TestFirstInvariants: Generate, Filter and Commit all leave First
// consistent with the Parents runs, on random tries grown to level 4
// through random filters and commits.
func TestFirstInvariants(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := NewRoot(make([]dataset.FrequentItem, 2+r.Intn(10)))
		checkFirst(t, &Level{Items: make([]itemset.Item, 1)}, tr.Level(1), nil)
		for k := 2; k <= 4; k++ {
			c := tr.Generate()
			checkFirst(t, tr.Level(k-1), c.Level, c.Py)
			if k == 2 {
				checkPairSlots(t, c)
			}
			keep := make([]bool, c.Len())
			for i := range keep {
				keep[i] = r.Intn(4) > 0
			}
			c.Filter(keep)
			checkFirst(t, tr.Level(k-1), c.Level, c.Py)
			for i := range c.Supports {
				c.Supports[i] = r.Intn(2)
			}
			tr.Commit(c, 1)
			checkCommitted(t, tr)
		}
	}
}

// TestFirstEmpty: the empty trie's root and generation still carry the
// one First entry past their (no) nodes.
func TestFirstEmpty(t *testing.T) {
	tr := NewRoot(nil)
	c := tr.Generate()
	if !slices.Equal(tr.Level(1).First, []int32{0, 0}) || !slices.Equal(c.First, []int32{0}) || c.Len() != 0 {
		t.Fatalf("empty trie: root First %v, generation First %v, %d candidates", tr.Level(1).First, c.First, c.Len())
	}
}

// TestQuickPruneMatchesOracle grows random tries level by level to
// levels 3–6, committing a random subset of each level's survivors,
// and checks every prune against an oracle that shares none of the
// trie's lookup: the committed itemsets are kept in a set of their own,
// built from the candidate rows as they are committed. Prune must keep
// exactly the candidates whose every k-subset is in that set, row by
// row and in order, on teams of 1–4 under every schedule.
func TestQuickPruneMatchesOracle(t *testing.T) {
	schedules := []sched.Schedule{
		{Policy: sched.Static},
		{Policy: sched.Dynamic},
		{Policy: sched.Guided},
	}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		top := 3 + r.Intn(4)
		tr := NewRoot(make([]dataset.FrequentItem, top+r.Intn(6)))
		// sets[k] lists the itemsets of level k's nodes, index-aligned;
		// committed holds every committed itemset's key.
		sets := [][]itemset.Itemset{nil, nil}
		committed := make(map[string]bool)
		for i := range tr.Level(1).Items {
			sets[1] = append(sets[1], itemset.New(itemset.Item(i)))
			committed[sets[1][i].Key()] = true
		}
		for k := 2; k <= top; k++ {
			c := tr.Generate()
			checkFirst(t, tr.Level(k-1), c.Level, c.Py)
			cands := make([]itemset.Itemset, c.Len())
			for i := range cands {
				cands[i] = sets[k-1][c.Parents[i]].Extend(c.Level.Items[i])
			}
			type row struct{ px, py int32 }
			var want []row
			var wantSets []itemset.Itemset
			for i, full := range cands {
				ok := true
				full.AllButOne(func(sub itemset.Itemset) {
					ok = ok && committed[sub.Key()]
				})
				if ok {
					want = append(want, row{c.Parents[i], c.Py[i]})
					wantSets = append(wantSets, full)
				}
			}
			team := sched.NewTeam(1 + r.Intn(4))
			removed, err := tr.Prune(c, team, nil, schedules[r.Intn(len(schedules))], nil)
			if err != nil || removed != len(cands)-len(want) || c.Len() != len(want) {
				return false
			}
			for i, w := range want {
				if c.Py[i] != w.py || c.Level.Parents[i] != w.px ||
					c.Level.Items[i] != wantSets[i][k-1] {
					return false
				}
			}
			checkFirst(t, tr.Level(k-1), c.Level, c.Py)
			// Commit a random subset of the survivors.
			sets = append(sets, nil)
			for i := range wantSets {
				if r.Intn(5) > 0 {
					c.Level.Supports[i] = 1
					sets[k] = append(sets[k], wantSets[i])
					committed[wantSets[i].Key()] = true
				}
			}
			tr.Commit(c, 1)
			checkCommitted(t, tr)
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 120}); err != nil {
		t.Errorf("prune diverges from the oracle: %v", err)
	}
}
