// Package trie implements the candidate trie of §II-A of the paper.
//
// Rather than a pointer-linked tree, the trie is stored as one table per
// level (candidate size): a struct-of-arrays of (last item, prefix link)
// pairs. Each node at level k represents a k-itemset — the path from the
// root through its prefix chain. The flat per-level table is exactly what
// makes Apriori's support-counting loop a schedulable iteration space:
// "we represent the trie using a table that stores the nodes associated
// with each level of the tree."
//
// Candidate generation follows the classic join: two level-k nodes that
// share their level-(k−1) prefix node (i.e. are siblings) join into a
// level-(k+1) candidate. Optional subset pruning removes candidates with
// an infrequent k-subset before support counting is paid for them.
package trie

import (
	"repro/internal/itemset"
	"repro/internal/runctl"
	"repro/internal/sched"
)

// NoParent marks level-1 nodes, whose prefix is the empty itemset.
const NoParent int32 = -1

// Level is the table of all nodes of one trie level. Nodes are stored in
// lexicographic itemset order; siblings (equal Parent) are contiguous and
// their Items ascend. Construction through NewRoot and Generate preserves
// this invariant.
type Level struct {
	// K is the itemset size at this level (1 for roots).
	K int
	// Items holds each node's last item.
	Items []itemset.Item
	// Parents holds, for each node, the index of its prefix node in the
	// previous level (NoParent at level 1).
	Parents []int32
	// Supports holds each node's support once counted. Candidates start
	// at 0; Apriori fills them in during support counting.
	Supports []int
}

// Len returns the number of nodes in the level.
func (l *Level) Len() int { return len(l.Items) }

// Trie is the stack of levels built so far. Levels[0] is level 1.
type Trie struct {
	Levels []*Level
}

// NewRoot builds level 1 from the frequent items 0..n-1 (dense codes)
// with the given supports.
func NewRoot(supports []int) *Trie {
	l := &Level{K: 1}
	l.Items = make([]itemset.Item, len(supports))
	l.Parents = make([]int32, len(supports))
	l.Supports = make([]int, len(supports))
	for i := range supports {
		l.Items[i] = itemset.Item(i)
		l.Parents[i] = NoParent
		l.Supports[i] = supports[i]
	}
	return &Trie{Levels: []*Level{l}}
}

// Level returns the table for itemset size k (1-based), or nil if that
// level has not been built.
func (t *Trie) Level(k int) *Level {
	if k < 1 || k > len(t.Levels) {
		return nil
	}
	return t.Levels[k-1]
}

// ItemsetOf reconstructs the full itemset of node idx at itemset size k
// by walking the prefix chain. The result is freshly allocated.
func (t *Trie) ItemsetOf(k int, idx int32) itemset.Itemset {
	s := make(itemset.Itemset, k)
	for lvl := k; lvl >= 1; lvl-- {
		l := t.Levels[lvl-1]
		s[lvl-1] = l.Items[idx]
		idx = l.Parents[idx]
	}
	return s
}

// Candidates is one generation's worth of joined candidates, before
// support counting. The slices are parallel: candidate c has prefix node
// Px[c] and sibling node Py[c] in the parent level, and its own row c in
// Level. Px's last item always precedes Py's, which is the operand order
// the diffset combine requires.
type Candidates struct {
	Level *Level
	Px    []int32
	Py    []int32
	// Blocks marks the prefix-block boundaries: candidates sharing a Px
	// are contiguous by construction (Px is non-decreasing across the
	// generation), and block b spans rows [Blocks[b], Blocks[b+1]). The
	// final entry is Len() — a sentinel, so len(Blocks)−1 is the number
	// of blocks. Maintained by Generate and by pruning's compaction;
	// this is the iteration space of the batched combine path.
	Blocks []int32
}

// Len returns the number of candidates.
func (c *Candidates) Len() int { return len(c.Px) }

// Generate joins every sibling pair of the top level into the next
// generation of candidates (paper Algorithm 1, candidate_generation).
// It does not push the new level onto the trie; the caller does that
// after pruning and support counting via Commit.
func (t *Trie) Generate() *Candidates {
	parent := t.Levels[len(t.Levels)-1]
	out := &Candidates{Level: &Level{K: parent.K + 1}}
	n := parent.Len()
	for runStart := 0; runStart < n; {
		runEnd := runStart + 1
		for runEnd < n && parent.Parents[runEnd] == parent.Parents[runStart] {
			runEnd++
		}
		for i := runStart; i < runEnd; i++ {
			if i+1 < runEnd {
				out.Blocks = append(out.Blocks, int32(len(out.Px)))
			}
			for j := i + 1; j < runEnd; j++ {
				out.Level.Items = append(out.Level.Items, parent.Items[j])
				out.Level.Parents = append(out.Level.Parents, int32(i))
				out.Px = append(out.Px, int32(i))
				out.Py = append(out.Py, int32(j))
			}
		}
		runStart = runEnd
	}
	out.Blocks = append(out.Blocks, int32(len(out.Px)))
	out.Level.Supports = make([]int, len(out.Level.Items))
	return out
}

// index maps a level's itemsets to node indices, for subset pruning.
type index map[string]int32

func (t *Trie) indexLevel(k int) index {
	l := t.Levels[k-1]
	idx := make(index, l.Len())
	for i := int32(0); i < int32(l.Len()); i++ {
		idx[t.ItemsetOf(k, i).Key()] = i
	}
	return idx
}

// Prune removes candidates that have an infrequent k-subset (the Apriori
// property): a (k+1)-candidate survives only if all k+1 of its k-subsets
// are nodes of the top level. The join already guarantees two of them;
// the remaining k−1 are checked against a hash index of the top level.
// Prune returns the number of candidates removed.
func (t *Trie) Prune(c *Candidates) int {
	k := c.Level.K - 1 // subset size to check
	if k < 2 {
		return 0 // 1-subsets of a 2-candidate are its items, frequent by construction
	}
	idx := t.indexLevel(k)
	keep := make([]bool, c.Len())
	removed := 0
	for i := range keep {
		keep[i] = t.subsetsFrequent(idx, c, k, i)
		if !keep[i] {
			removed++
		}
	}
	if removed > 0 {
		c.Filter(keep)
	}
	return removed
}

// subsetsFrequent checks candidate i's Apriori property against the
// k-level hash index: every k-subset of the candidate must be a node
// of the top level.
func (t *Trie) subsetsFrequent(idx index, c *Candidates, k, i int) bool {
	full := t.ItemsetOf(k, c.Px[i]).Extend(c.Level.Items[i])
	ok := true
	full.AllButOne(func(sub itemset.Itemset) {
		if !ok {
			return
		}
		// The two generating parents are sub without the last or
		// second-to-last item; they exist by construction, but a map
		// hit is cheap and the uniform check keeps the code simple.
		if _, found := idx[sub.Key()]; !found {
			ok = false
		}
	})
	return ok
}

// PruneParallel is Prune with the per-candidate subset checks run on a
// worker team — previously a serial Amdahl term charged to the phase
// accounting as pure serial time. The k-level hash index is built once
// (serially; it is a shared read-only map during the checks), the keep
// bitmap is filled on the team, and the surviving rows are compacted
// serially. It removes exactly the set of candidates Prune removes.
// On cancellation the candidates are left unpruned (support counting
// never runs, so no wrong answer can be observed) and the stop cause
// is returned. loop, when non-nil, records the check loop (see
// sched.Team.ForCtx).
func (t *Trie) PruneParallel(c *Candidates, team *sched.Team, loop *sched.Loop, s sched.Schedule, rc *runctl.Control) (int, error) {
	k := c.Level.K - 1 // subset size to check
	if k < 2 {
		return 0, rc.Err()
	}
	idx := t.indexLevel(k)
	keep := make([]bool, c.Len())
	if err := team.ForCtx(rc, loop, c.Len(), s, func(_, i int) {
		keep[i] = t.subsetsFrequent(idx, c, k, i)
	}); err != nil {
		return 0, err
	}
	removed := 0
	for _, ok := range keep {
		if !ok {
			removed++
		}
	}
	if removed > 0 {
		c.Filter(keep)
	}
	return removed, nil
}

// Filter compacts the candidate arrays to the rows keep marks, in
// order, and rebuilds the prefix blocks; len(keep) must be Len().
func (c *Candidates) Filter(keep []bool) {
	w := 0
	for i := range keep {
		if keep[i] {
			c.Level.Items[w] = c.Level.Items[i]
			c.Level.Parents[w] = c.Level.Parents[i]
			c.Level.Supports[w] = c.Level.Supports[i]
			c.Px[w] = c.Px[i]
			c.Py[w] = c.Py[i]
			w++
		}
	}
	c.Level.Items = c.Level.Items[:w]
	c.Level.Parents = c.Level.Parents[:w]
	c.Level.Supports = c.Level.Supports[:w]
	c.Px = c.Px[:w]
	c.Py = c.Py[:w]
	// Rebuild the prefix blocks: compaction preserves Px order, so the
	// kept rows' Px change points are the new block starts.
	c.Blocks = c.Blocks[:0]
	for i := 0; i < w; i++ {
		if i == 0 || c.Px[i] != c.Px[i-1] {
			c.Blocks = append(c.Blocks, int32(i))
		}
	}
	c.Blocks = append(c.Blocks, int32(w))
}

// Commit filters the candidates to those with Supports >= minSup
// (candidate_pruning of Algorithm 1), pushes the surviving level onto the
// trie, and returns it along with the kept candidate row indices
// (positions into the pre-filter candidate arrays), which the miner uses
// to carry vertical payloads forward.
func (t *Trie) Commit(c *Candidates, minSup int) (*Level, []int32) {
	var kept []int32
	for i := 0; i < c.Len(); i++ {
		if c.Level.Supports[i] >= minSup {
			kept = append(kept, int32(i))
		}
	}
	nl := &Level{K: c.Level.K}
	nl.Items = make([]itemset.Item, len(kept))
	nl.Parents = make([]int32, len(kept))
	nl.Supports = make([]int, len(kept))
	for w, i := range kept {
		nl.Items[w] = c.Level.Items[i]
		nl.Parents[w] = c.Level.Parents[i]
		nl.Supports[w] = c.Level.Supports[i]
	}
	// Reindexing: Parents reference the previous level, which is
	// unchanged — but only surviving *nodes of this level* matter for the
	// next generation's sibling runs, and their prefix links are intact.
	t.Levels = append(t.Levels, nl)
	return nl, kept
}

// FrequentItemsets enumerates every node of every committed level as a
// (itemset, support) pair, in level order then lexicographic order.
func (t *Trie) FrequentItemsets() ([]itemset.Itemset, []int) {
	var sets []itemset.Itemset
	var sups []int
	for k := 1; k <= len(t.Levels); k++ {
		l := t.Levels[k-1]
		for i := int32(0); i < int32(l.Len()); i++ {
			sets = append(sets, t.ItemsetOf(k, i))
			sups = append(sups, l.Supports[i])
		}
	}
	return sets, sups
}
