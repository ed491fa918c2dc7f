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
// Every level, level 1 included, records where each node of the level
// above starts its child run (Level.First); level 1's nodes are the
// children of the empty itemset, so its First is {0, n}. A candidate
// generation is such a level too, plus each candidate's sibling (Py).
//
// Candidate generation follows the classic join: two level-k nodes that
// share their level-(k−1) prefix node (i.e. are siblings) join into a
// level-(k+1) candidate, so the new First is a prefix sum of run sizes
// and generation writes every array at its exact size. Subset pruning
// removes candidates with an infrequent k-subset before support
// counting is paid for them; First is its only index, so the check
// descends the tables one binary search per level.
package trie

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/runctl"
	"repro/internal/sched"
)

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
	// previous level. Level 1's prefix is the empty itemset, node 0 of
	// the level above it that no table stores.
	Parents []int32
	// Supports holds each node's support once counted. Candidates start
	// at 0; Apriori fills them in during support counting.
	Supports []int
	// First locates child runs: the children of node p of the level
	// above are rows [First[p], First[p+1]) of this one, so it has one
	// entry more than that level has nodes: {0, n} at level 1.
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
		l.Supports[i] = fi.Support
	}
	l.First = []int32{0, int32(len(items))}
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
// support counting: an ordinary level whose First indexes the child run
// of every node of the top level, plus Py. Candidate c has prefix node
// Parents[c] and sibling node Py[c] in the top level; the prefix's last
// item always precedes the sibling's, which is the operand order the
// diffset combine requires.
type Candidates struct {
	*Level
	Py []int32
}

// Generate joins every sibling pair of the top level into the next
// generation of candidates (paper Algorithm 1, candidate_generation).
// Node i of a sibling run ending at end has end−i−1 children, one per
// later sibling, so the new First is a prefix sum of those counts and
// every array is made at its exact size. Generate does not push the new
// level onto the trie; the caller does that after pruning and support
// counting via Commit.
func (t *Trie) Generate() *Candidates {
	top := t.Levels[len(t.Levels)-1]
	first := make([]int32, top.Len()+1)
	for g := 1; g < len(top.First); g++ {
		for i, end := top.First[g-1], top.First[g]; i < end; i++ {
			first[i+1] = first[i] + end - i - 1
		}
	}
	n := first[top.Len()]
	c := &Candidates{Level: &Level{
		K:        top.K + 1,
		Items:    make([]itemset.Item, n),
		Parents:  make([]int32, n),
		Supports: make([]int, n),
		First:    first,
	}, Py: make([]int32, n)}
	for g := 1; g < len(top.First); g++ {
		for i, end := top.First[g-1], top.First[g]; i < end; i++ {
			for j, r := i+1, first[i]; j < end; j, r = j+1, r+1 {
				c.Items[r], c.Parents[r], c.Py[r] = top.Items[j], i, j
			}
		}
	}
	return c
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
	node := c.Parents[i]
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

// Filter compacts the candidates to the rows keep marks, in order, and
// rebuilds First; len(keep) must be Len().
func (c *Candidates) Filter(keep []bool) {
	n := 0
	for _, ok := range keep {
		if ok {
			n++
		}
	}
	kept := make([]int32, 0, n)
	for i, ok := range keep {
		if ok {
			kept = append(kept, int32(i))
		}
	}
	c.Level.compact(c.Level, kept)
	for w, i := range kept {
		c.Py[w] = c.Py[i]
	}
	c.Py = c.Py[:n]
}

// Commit filters the candidates to those with Supports >= minSup
// (candidate_pruning of Algorithm 1), copies the survivors into a new
// level of exactly their size, pushes it onto the trie and returns it
// along with the kept candidate row indices (positions into the
// candidate arrays), which the miner uses to carry vertical payloads
// forward. The candidate arrays are not kept.
func (t *Trie) Commit(c *Candidates, minSup int) (*Level, []int32) {
	var kept []int32
	for i, s := range c.Supports {
		if s >= minSup {
			kept = append(kept, int32(i))
		}
	}
	nl := &Level{
		K:        c.K,
		Items:    make([]itemset.Item, len(kept)),
		Parents:  make([]int32, len(kept)),
		Supports: make([]int, len(kept)),
		First:    make([]int32, len(c.First)),
	}
	c.Level.compact(nl, kept)
	t.Levels = append(t.Levels, nl)
	return nl, kept
}

// compact moves l's rows kept (ascending) to the front of dst's arrays,
// which may be l's own, and rebuilds dst.First over the same nodes of
// the level above. A kept row keeps its parent and Parents stays
// non-decreasing, so First is a prefix sum of each parent's kept
// children.
func (l *Level) compact(dst *Level, kept []int32) {
	for w, i := range kept {
		dst.Items[w], dst.Parents[w], dst.Supports[w] = l.Items[i], l.Parents[i], l.Supports[i]
	}
	n := len(kept)
	dst.Items, dst.Parents, dst.Supports = dst.Items[:n], dst.Parents[:n], dst.Supports[:n]
	clear(dst.First)
	for _, p := range dst.Parents {
		dst.First[p+1]++
	}
	for p := 1; p < len(dst.First); p++ {
		dst.First[p] += dst.First[p-1]
	}
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
