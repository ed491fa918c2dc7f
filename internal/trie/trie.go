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
// level-(k+1) candidate. Subset pruning removes candidates with an
// infrequent k-subset before support counting is paid for them; the
// tables are its only index: each committed level records where every
// node of the level above starts its child run (Level.First), so the
// check descends the tables one binary search per level.
package trie

import (
	"repro/internal/core"
	"repro/internal/dataset"
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
	// First locates child runs: the children of node p of the level
	// above are rows [First[p], First[p+1]) of this one. Commit builds
	// it; level 1 has none, since its node i is item i.
	First []int32
}

// Len returns the number of nodes in the level.
func (l *Level) Len() int { return len(l.Items) }

// Trie is the stack of levels built so far. Levels[0] is level 1.
type Trie struct {
	Levels []*Level
}

// NewRoot builds level 1 from the first pass's frequent items, whose
// dense codes are their positions 0..n-1.
func NewRoot(items []dataset.FrequentItem) *Trie {
	l := &Level{K: 1}
	l.Items = make([]itemset.Item, len(items))
	l.Parents = make([]int32, len(items))
	l.Supports = make([]int, len(items))
	for i, fi := range items {
		l.Items[i] = itemset.Item(i)
		l.Parents[i] = NoParent
		l.Supports[i] = fi.Support
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

// Prune removes candidates that have an infrequent k-subset (the Apriori
// property): a (k+1)-candidate survives only if all k+1 of its k-subsets
// are nodes of the top level. The join already guarantees the two that
// drop one of the last two items; the other k−1 are looked up in the
// level tables themselves. The subset that drops the item at position j
// shares the candidate's own prefix path down to level j, read off the
// Parents chain; from there each level below is one binary search of
// the next item inside the node's child run (Level.First). The checks
// run on the team, each worker on its own scratch buffers, so no check
// allocates; the surviving rows are compacted serially. Prune returns
// the number of candidates removed.
//
// On cancellation the candidates are left unpruned (support counting
// never runs, so no wrong answer can be observed) and the stop cause
// is returned. loop, when non-nil, records the check loop (see
// sched.Team.ForCtx).
func (t *Trie) Prune(c *Candidates, team *sched.Team, loop *sched.Loop, s sched.Schedule, rc *runctl.Control) (int, error) {
	k := c.Level.K - 1 // subset size to check
	if k < 2 {
		return 0, rc.Err() // 1-subsets of a 2-candidate are its items, frequent by construction
	}
	// One path and item buffer per worker, padded a cache line apart.
	stride := k + 16
	paths := make([]int32, team.Workers()*stride)
	items := make([]itemset.Item, team.Workers()*stride)
	keep := make([]bool, c.Len())
	if err := team.ForCtx(rc, loop, c.Len(), s, func(w, i int) {
		at := w * stride
		keep[i] = t.subsetsFrequent(c, i, paths[at:at+k], items[at:at+k+1])
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

// subsetsFrequent reports whether candidate i's k-subsets that drop
// one of positions 0..k−2 are all nodes of level k, where k = len(path).
// path and items are scratch: they receive the nodes of the
// candidate's prefix (path[l] at level l+1) and its k+1 items.
func (t *Trie) subsetsFrequent(c *Candidates, i int, path []int32, items []itemset.Item) bool {
	k := len(path)
	items[k] = c.Level.Items[i]
	node := c.Px[i]
	for l := k - 1; l >= 0; l-- {
		path[l] = node
		items[l] = t.Levels[l].Items[node]
		node = t.Levels[l].Parents[node]
	}
	// The deepest drop shares the longest path, so it is checked first.
	for j := k - 2; j >= 0; j-- {
		// Start from the shared prefix node at level j. Level 1 is
		// indexed by item, so with no shared prefix the subset's first
		// item is its own node.
		m, node := 1, int32(items[1])
		if j > 0 {
			m, node = j, path[j-1]
		}
		for ; m < k; m++ {
			if node = t.Levels[m].child(node, items[m+1]); node < 0 {
				return false
			}
		}
	}
	return true
}

// child returns the row of parent node p's child with last item x, or
// −1 if p has no such child: a binary search of p's child run.
func (l *Level) child(p int32, x itemset.Item) int32 {
	lo, end := l.First[p], l.First[p+1]
	for hi := end; lo < hi; {
		mid := int32(uint32(lo+hi) >> 1)
		if l.Items[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && l.Items[lo] == x {
		return lo
	}
	return -1
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
// trie with its First table, and returns it along with the kept candidate
// row indices (positions into the pre-filter candidate arrays), which the
// miner uses to carry vertical payloads forward.
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
	// Parents is non-decreasing, so First is a prefix sum of each parent
	// node's child count.
	nl.First = make([]int32, t.Levels[len(t.Levels)-1].Len()+1)
	for _, p := range nl.Parents {
		nl.First[p+1]++
	}
	for p := 1; p < len(nl.First); p++ {
		nl.First[p] += nl.First[p-1]
	}
	t.Levels = append(t.Levels, nl)
	return nl, kept
}

// Counts enumerates every node of every committed level with its
// support, in level order then lexicographic order, and returns the size
// of the largest (0 for an empty trie).
func (t *Trie) Counts() ([]core.ItemsetCount, int) {
	n := 0
	for _, l := range t.Levels {
		n += l.Len()
	}
	out := make([]core.ItemsetCount, 0, n)
	maxK := 0
	for k := 1; k <= len(t.Levels); k++ {
		l := t.Levels[k-1]
		for i := int32(0); i < int32(l.Len()); i++ {
			out = append(out, core.ItemsetCount{Items: t.ItemsetOf(k, i), Support: l.Supports[i]})
			maxK = k
		}
	}
	return out, maxK
}
