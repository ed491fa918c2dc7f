package trie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/sched"
)

// checkBlocks asserts the Blocks invariants: a sentinel-terminated,
// strictly increasing cover of [0, Len()) whose every block holds a
// single Px value and whose boundaries are exactly the Px change
// points.
func checkBlocks(t *testing.T, c *Candidates) {
	t.Helper()
	if len(c.Blocks) == 0 {
		t.Fatal("Blocks missing its sentinel")
	}
	if got := c.Blocks[len(c.Blocks)-1]; got != int32(c.Len()) {
		t.Fatalf("Blocks sentinel = %d, want %d", got, c.Len())
	}
	if c.Blocks[0] != 0 && c.Len() > 0 {
		t.Fatalf("first block starts at %d", c.Blocks[0])
	}
	for b := 0; b+1 < len(c.Blocks); b++ {
		lo, hi := c.Blocks[b], c.Blocks[b+1]
		if lo >= hi {
			t.Fatalf("block %d is empty or inverted: [%d, %d)", b, lo, hi)
		}
		for i := lo; i < hi; i++ {
			if c.Px[i] != c.Px[lo] {
				t.Fatalf("block %d mixes Px %d and %d", b, c.Px[lo], c.Px[i])
			}
		}
		if b > 0 && c.Px[lo] == c.Px[c.Blocks[b-1]] {
			t.Fatalf("blocks %d and %d share Px %d", b-1, b, c.Px[lo])
		}
	}
}

// randomTrie builds a trie with a committed random level 2, returning
// its level-3 candidates — the smallest shape where pruning can fire.
func randomTrie(r *rand.Rand) (*Trie, *Candidates) {
	n := 2 + r.Intn(10)
	tr := NewRoot(make([]dataset.FrequentItem, n))
	c := tr.Generate()
	for i := 0; i < c.Len(); i++ {
		if r.Intn(2) == 0 {
			c.Level.Supports[i] = 1
		}
	}
	tr.Commit(c, 1)
	return tr, tr.Generate()
}

// TestBlocksInvariants: Generate and Prune's compaction both leave
// Blocks consistent with the Px runs, on random tries.
func TestBlocksInvariants(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr, c := randomTrie(r)
		checkBlocks(t, c)
		prune(tr, c)
		checkBlocks(t, c)
	}
}

// TestBlocksEmpty: an empty generation still carries the sentinel.
func TestBlocksEmpty(t *testing.T) {
	c := NewRoot(nil).Generate()
	checkBlocks(t, c)
	if len(c.Blocks) != 1 {
		t.Fatalf("empty generation has %d block entries, want sentinel only", len(c.Blocks))
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
			cands := make([]itemset.Itemset, c.Len())
			for i := range cands {
				cands[i] = sets[k-1][c.Px[i]].Extend(c.Level.Items[i])
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
					want = append(want, row{c.Px[i], c.Py[i]})
					wantSets = append(wantSets, full)
				}
			}
			team := sched.NewTeam(1 + r.Intn(4))
			removed, err := tr.Prune(c, team, nil, schedules[r.Intn(len(schedules))], nil)
			if err != nil || removed != len(cands)-len(want) || c.Len() != len(want) {
				return false
			}
			for i, w := range want {
				if c.Px[i] != w.px || c.Py[i] != w.py || c.Level.Parents[i] != w.px ||
					c.Level.Items[i] != wantSets[i][k-1] {
					return false
				}
			}
			checkBlocks(t, c)
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
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 120}); err != nil {
		t.Errorf("prune diverges from the oracle: %v", err)
	}
}
