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

// roots returns first-pass frequent items with the given supports.
func roots(supports ...int) []dataset.FrequentItem {
	items := make([]dataset.FrequentItem, len(supports))
	for i, s := range supports {
		items[i] = dataset.FrequentItem{Original: itemset.Item(i), Support: s}
	}
	return items
}

// prune runs Prune on a one-worker team under the static schedule.
func prune(tr *Trie, c *Candidates) int {
	removed, err := tr.Prune(c, sched.NewTeam(1), nil, sched.Schedule{Policy: sched.Static}, nil)
	if err != nil {
		panic(err)
	}
	return removed
}

func TestNewRoot(t *testing.T) {
	tr := NewRoot(roots(5, 7, 3))
	l := tr.Level(1)
	if l == nil || l.Len() != 3 || l.K != 1 {
		t.Fatalf("root level malformed: %+v", l)
	}
	for i := 0; i < 3; i++ {
		if l.Items[i] != itemset.Item(i) || l.Parents[i] != 0 {
			t.Errorf("node %d = (%d, %d)", i, l.Items[i], l.Parents[i])
		}
	}
	if l.Supports[1] != 7 {
		t.Errorf("support[1] = %d", l.Supports[1])
	}
	if tr.Level(2) != nil || tr.Level(0) != nil {
		t.Error("Level returned non-nil for absent level")
	}
}

func TestItemsetOf(t *testing.T) {
	tr := NewRoot(roots(1, 1, 1))
	c := tr.Generate()
	// candidates: {0,1},{0,2},{1,2}
	for i := range c.Parents {
		c.Level.Supports[i] = 1
	}
	tr.Commit(c, 1)
	if got := tr.ItemsetOf(2, 1); !got.Equal(itemset.New(0, 2)) {
		t.Errorf("ItemsetOf(2,1) = %v", got)
	}
	if got := tr.ItemsetOf(1, 2); !got.Equal(itemset.New(2)) {
		t.Errorf("ItemsetOf(1,2) = %v", got)
	}
}

func TestGenerateLevel2(t *testing.T) {
	tr := NewRoot(roots(1, 1, 1, 1))
	c := tr.Generate()
	if c.Len() != 6 { // C(4,2)
		t.Fatalf("generated %d candidates, want 6", c.Len())
	}
	want := [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for i, w := range want {
		if c.Parents[i] != w[0] || c.Py[i] != w[1] {
			t.Errorf("candidate %d parents = (%d,%d), want %v", i, c.Parents[i], c.Py[i], w)
		}
		if c.Level.Parents[i] != w[0] || c.Level.Items[i] != itemset.Item(w[1]) {
			t.Errorf("candidate %d node = (parent %d, item %d)", i, c.Level.Parents[i], c.Level.Items[i])
		}
	}
}

func TestGenerateRespectsSiblingRuns(t *testing.T) {
	// Build level 2 = {0,1},{0,2},{1,2} then generate level 3:
	// only {0,1} and {0,2} are siblings (parent 0), so one candidate {0,1,2}.
	tr := NewRoot(roots(1, 1, 1))
	c := tr.Generate()
	for i := range c.Parents {
		c.Level.Supports[i] = 1
	}
	tr.Commit(c, 1)
	c3 := tr.Generate()
	if c3.Len() != 1 {
		t.Fatalf("level-3 candidates = %d, want 1", c3.Len())
	}
	full := tr.ItemsetOf(2, c3.Parents[0]).Extend(c3.Level.Items[0])
	if !full.Equal(itemset.New(0, 1, 2)) {
		t.Errorf("candidate = %v", full)
	}
}

func TestCommitFiltersByMinSup(t *testing.T) {
	tr := NewRoot(roots(9, 9, 9))
	c := tr.Generate() // {0,1},{0,2},{1,2}
	c.Level.Supports[0] = 5
	c.Level.Supports[1] = 2
	c.Level.Supports[2] = 7
	lvl, kept := tr.Commit(c, 5)
	if lvl.Len() != 2 {
		t.Fatalf("kept %d nodes", lvl.Len())
	}
	if len(kept) != 2 || kept[0] != 0 || kept[1] != 2 {
		t.Errorf("kept rows = %v", kept)
	}
	if got := tr.ItemsetOf(2, 0); !got.Equal(itemset.New(0, 1)) {
		t.Errorf("node 0 = %v", got)
	}
	if got := tr.ItemsetOf(2, 1); !got.Equal(itemset.New(1, 2)) {
		t.Errorf("node 1 = %v", got)
	}
	if lvl.Supports[1] != 7 {
		t.Errorf("support = %d", lvl.Supports[1])
	}
	// Root 0 keeps child {0,1}, root 1 keeps {1,2}, root 2 has none.
	if want := []int32{0, 1, 2, 2}; !slices.Equal(lvl.First, want) {
		t.Errorf("First = %v, want %v", lvl.First, want)
	}
}

func TestPrune(t *testing.T) {
	// Level 1: items 0..3. Level 2 (committed): {0,1},{0,2},{1,2},{1,3}.
	// {2,3} and {0,3} are infrequent. Level-3 join candidates:
	// from parent {0}: {0,1,2}; from parent {1}: {1,2,3}.
	// {0,1,2}: subsets {0,1},{0,2},{1,2} all present -> keep.
	// {1,2,3}: subset {2,3} missing -> pruned.
	tr := NewRoot(roots(1, 1, 1, 1))
	c := tr.Generate()
	for i := 0; i < c.Len(); i++ {
		full := tr.ItemsetOf(1, c.Parents[i]).Extend(c.Level.Items[i])
		switch full.String() {
		case "{0, 1}", "{0, 2}", "{1, 2}", "{1, 3}":
			c.Level.Supports[i] = 1
		}
	}
	tr.Commit(c, 1)
	c3 := tr.Generate()
	if c3.Len() != 2 {
		t.Fatalf("pre-prune candidates = %d, want 2", c3.Len())
	}
	removed := prune(tr, c3)
	if removed != 1 || c3.Len() != 1 {
		t.Fatalf("Prune removed %d, left %d", removed, c3.Len())
	}
	full := tr.ItemsetOf(2, c3.Parents[0]).Extend(c3.Level.Items[0])
	if !full.Equal(itemset.New(0, 1, 2)) {
		t.Errorf("surviving candidate = %v", full)
	}
}

func TestPruneNoOpAtLevel2(t *testing.T) {
	tr := NewRoot(roots(1, 1))
	c := tr.Generate()
	if removed := prune(tr, c); removed != 0 {
		t.Errorf("Prune removed %d at level 2", removed)
	}
}

func TestFrequentItemsets(t *testing.T) {
	tr := NewRoot(roots(4, 5))
	c := tr.Generate()
	c.Level.Supports[0] = 3
	tr.Commit(c, 1)
	counts, maxK := tr.Counts()
	if len(counts) != 3 || maxK != 2 {
		t.Fatalf("enumerated %d itemsets, maxK %d", len(counts), maxK)
	}
	wantSets := []itemset.Itemset{itemset.New(0), itemset.New(1), itemset.New(0, 1)}
	wantSups := []int{4, 5, 3}
	for i := range wantSets {
		if !counts[i].Items.Equal(wantSets[i]) || counts[i].Support != wantSups[i] {
			t.Errorf("itemset %d = %v/%d, want %v/%d", i, counts[i].Items, counts[i].Support, wantSets[i], wantSups[i])
		}
	}
}

func TestEmptyRoot(t *testing.T) {
	tr := NewRoot(nil)
	c := tr.Generate()
	if c.Len() != 0 {
		t.Errorf("generated %d candidates from empty root", c.Len())
	}
	if counts, maxK := tr.Counts(); len(counts) != 0 || maxK != 0 {
		t.Errorf("enumerated %d itemsets (maxK %d) from empty trie", len(counts), maxK)
	}
}

// Property: generated candidates are exactly the joins of sibling pairs —
// sorted lexicographically, unique, with prefix node < Py and matching items.
func TestQuickGenerateSoundness(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		tr := NewRoot(make([]dataset.FrequentItem, n))
		// Commit a random subset of the 2-itemsets.
		c := tr.Generate()
		for i := 0; i < c.Len(); i++ {
			if r.Intn(2) == 0 {
				c.Level.Supports[i] = 1
			}
		}
		lvl2, _ := tr.Commit(c, 1)
		c3 := tr.Generate()
		// Every candidate must come from two committed siblings and be
		// lexicographically increasing and unique.
		var prev itemset.Itemset
		for i := 0; i < c3.Len(); i++ {
			px, py := c3.Parents[i], c3.Py[i]
			if px >= py || int(py) >= lvl2.Len() {
				return false
			}
			if lvl2.Parents[px] != lvl2.Parents[py] {
				return false
			}
			if c3.Level.Items[i] != lvl2.Items[py] || c3.Level.Parents[i] != px {
				return false
			}
			full := tr.ItemsetOf(2, px).Extend(c3.Level.Items[i])
			if prev != nil && prev.Compare(full) >= 0 {
				return false
			}
			prev = full
		}
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("generate soundness: %v", err)
	}
}

// Property: at level 3, Prune keeps exactly the candidates whose every
// 2-subset is present, row for row and in order.
func TestQuickPruneExact(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)
		tr := NewRoot(make([]dataset.FrequentItem, n))
		c := tr.Generate()
		present := make(map[string]bool)
		for i := 0; i < c.Len(); i++ {
			if r.Intn(3) > 0 {
				c.Level.Supports[i] = 1
				full := tr.ItemsetOf(1, c.Parents[i]).Extend(c.Level.Items[i])
				present[full.Key()] = true
			}
		}
		tr.Commit(c, 1)
		c3 := tr.Generate()
		// The expected survivors, as (prefix, Py) rows, before pruning.
		var want [][2]int32
		for i := 0; i < c3.Len(); i++ {
			full := tr.ItemsetOf(2, c3.Parents[i]).Extend(c3.Level.Items[i])
			ok := true
			full.AllButOne(func(sub itemset.Itemset) {
				if !present[sub.Clone().Key()] {
					ok = false
				}
			})
			if ok {
				want = append(want, [2]int32{c3.Parents[i], c3.Py[i]})
			}
		}
		prune(tr, c3)
		if c3.Len() != len(want) {
			return false
		}
		for i, w := range want {
			if c3.Parents[i] != w[0] || c3.Py[i] != w[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("prune exactness: %v", err)
	}
}
