// The PPC encoding pass: transactions are sorted so equal prefixes are
// adjacent, and one streaming walk over the sorted order plays the
// prefix tree's DFS without ever materializing tree nodes — each
// prefix-stack push is a pre-order visit, each pop a post-order one.
// The walk assigns every implicit node a pre-order rank, a post-order
// rank, and a contiguous interval of relabeled TIDs, gathers each
// item's nodes into its N-list, and tallies the all-pairs co-occurrence
// matrix. Ancestry in the tree — which is exactly set containment
// between the root paths — becomes a constant-time test on the ranks:
//
//	m is an ancestor of n  ⟺  m.Pre < n.Pre && m.Post > n.Post
//
// so the merge kernels (kernel.go) need nothing but the N-lists.

package nodeset

import (
	"slices"

	"repro/internal/dataset"
)

// L1Entry is one element of a level-1 N-list: a PPC-tree node carrying
// the item, identified by its pre/post-order ranks, with the number of
// transactions whose paths pass through it.
type L1Entry struct {
	Pre, Post, Count uint32
}

// L1EntryBytes is the wire footprint of one N-list element.
const L1EntryBytes = 12

// Entry is one element of a DiffNodeset: a PPC-tree node reference (its
// pre-order rank) plus the node's transaction count. DiffNodesets never
// need the post rank — their merges are plain sorted-set differences —
// so dropping it keeps k-itemset payloads at 8 bytes per node.
type Entry struct {
	Pre, Count uint32
}

// EntryBytes is the wire footprint of one DiffNodeset element.
const EntryBytes = 8

// List is a DiffNodeset: entries with strictly ascending Pre.
type List []Entry

// CountSum returns the total transaction count of the list's nodes.
func (l List) CountSum() int {
	s := 0
	for _, e := range l {
		s += int(e.Count)
	}
	return s
}

// maxPairItems bounds the all-pairs support matrix at 512² × 4 bytes
// (1 MiB). Dense databases — the ones this representation is for —
// have a few dozen to a few hundred frequent items; past the bound the
// matrix is dropped and 2-itemset supports fall back to the merge
// kernels.
const maxPairItems = 512

// Encoding is the PPC-encoded database: per-item N-lists plus the
// interval table that maps tree nodes back to (relabeled) transaction
// identifiers for the mid-run degrade shim.
type Encoding struct {
	// NLists holds each dense item code's N-list, sorted by ascending
	// Pre (equivalently ascending Post: an item's nodes are an
	// antichain, where the two orders agree).
	NLists [][]L1Entry
	// Lo maps a node's pre-order rank to the first of its relabeled
	// TIDs: the DFS assigns every node a contiguous interval
	// [Lo[pre], Lo[pre]+count) covering exactly the transactions whose
	// paths pass through it. Disjoint nodes get disjoint intervals, so
	// any DiffNodeset materializes to an exact sorted TID set — the
	// degrade path's bridge back to the diffset representation.
	Lo []uint32
	// Nodes is the tree's node count (the pre/post rank space).
	Nodes int
	// Total is the number of transactions inserted into the tree — the
	// size of the relabeled TID space. Transactions emptied by the
	// frequent-item filter never reach the tree; they occupy
	// [Total, universe) of the original space and belong to no item's
	// tidset, which the degrade complement accounts for.
	Total int
	// MinSup is the absolute threshold the database was recoded at: a
	// 2-itemset the pair matrix puts below it can never be extended, so
	// its DiffNodeset is never built.
	MinSup int

	// pairs is the flat co-occurrence matrix: pairs[x*nItems+y] for
	// x < y is support({x, y}), tallied during the encoding walk from
	// each node's ancestor items (a node of x lies under a node of y
	// exactly when some transaction carries both, and its count says
	// how many). Nil when nItems exceeds maxPairItems.
	pairs  []uint32
	nItems int
}

// PairSupport returns support({x, y}) for two dense item codes and
// true, or false when the encoding carries no pair matrix. O(1): the
// matrix turns every 2-itemset support — the widest level of the
// search, where most candidates die — into a lookup, so the merge
// kernels run only for the frequent survivors (Deng's PrePost trick of
// counting 2-itemsets from the tree).
func (e *Encoding) PairSupport(x, y int) (int, bool) {
	if e.pairs == nil {
		return 0, false
	}
	if x > y {
		x, y = y, x
	}
	return int(e.pairs[x*e.nItems+y]), true
}

// Build constructs the PPC encoding of a recoded database. Every
// transaction is ordered by descending dense code — so the deepest
// tree item of any itemset mined in ascending code order is its first
// item, giving every equivalence class one shared node universe — and
// the implicit prefix tree is encoded in a single streaming pass.
//
// The pass is the sorted-prefix form: transactions are flattened into
// an arena and their index windows sorted lexicographically (shorter
// prefixes first), which makes equal prefixes adjacent, so the walk
// keeps one stack of open tree nodes — pop to the shared prefix
// (assigning post-order ranks and flushing N-list entries), push the
// tail (assigning pre-order ranks and TID intervals) — and never
// searches for, or allocates, a tree node.
func Build(rec *dataset.Recoded) *Encoding {
	nItems := len(rec.Items)
	enc := &Encoding{
		NLists: make([][]L1Entry, nItems),
		MinSup: rec.MinSup,
		nItems: nItems,
	}
	if nItems <= maxPairItems {
		enc.pairs = make([]uint32, nItems*nItems)
	}

	// Flatten the non-empty transactions, reversed into descending code
	// order, into one arena, and sort their index windows
	// lexicographically. Almost all of the ordering is decided by a
	// packed prefix key — the first few items, code-shifted so that
	// "transaction ends" (0) sorts below every item, packed into one
	// uint64 — so the comparator rarely touches the arena: only
	// transactions agreeing on the whole packed prefix fall through to
	// the element-wise tail compare.
	type span struct {
		key    uint64
		lo, hi int32
	}
	bits := uint(1)
	for 1<<bits < nItems+1 {
		bits++
	}
	packed := int(64 / bits) // items per key
	arena := make([]int32, 0, 1024)
	spans := make([]span, 0, len(rec.DB.Transactions))
	for _, tr := range rec.DB.Transactions {
		if len(tr) == 0 {
			continue
		}
		lo := int32(len(arena))
		for i := len(tr) - 1; i >= 0; i-- {
			arena = append(arena, int32(tr[i]))
		}
		var key uint64
		for i := 0; i < packed; i++ {
			key <<= bits
			if int(lo)+i < len(arena) {
				key |= uint64(arena[int(lo)+i] + 1)
			}
		}
		spans = append(spans, span{key, lo, int32(len(arena))})
	}
	slices.SortFunc(spans, func(a, b span) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		x, y := arena[a.lo:a.hi], arena[b.lo:b.hi]
		if len(x) > packed && len(y) > packed {
			x, y = x[packed:], y[packed:]
			for i := 0; i < len(x) && i < len(y); i++ {
				if x[i] != y[i] {
					return int(x[i]) - int(y[i])
				}
			}
		}
		return len(x) - len(y)
	})
	enc.Total = len(spans)

	// The streaming DFS. open[d] is the node at depth d of the current
	// path; a node's count is final when it is popped, which is when
	// its N-list entry and its ancestor-pair tallies are flushed.
	type openNode struct {
		item  int32
		pre   uint32
		count uint32
	}
	var (
		open  = make([]openNode, 0, 64)
		preN  uint32
		postN uint32
		tid   uint32
	)
	// Lo grows with the pre ranks; sized for the worst (uncompressed)
	// case lazily via append.
	lo := make([]uint32, 0, 1024)
	pop := func() {
		n := open[len(open)-1]
		open = open[:len(open)-1]
		// Pop order is post order; within one item's antichain it
		// coincides with pre order, so appends keep N-lists sorted.
		enc.NLists[n.item] = append(enc.NLists[n.item],
			L1Entry{Pre: n.pre, Post: postN, Count: n.count})
		postN++
		if enc.pairs != nil {
			// Every open ancestor's item co-occurs with n.item in
			// exactly n.count transactions of this subtree.
			row := enc.pairs[int(n.item)*nItems : (int(n.item)+1)*nItems]
			for _, anc := range open {
				row[anc.item] += n.count
			}
		}
	}
	for _, sp := range spans {
		tr := arena[sp.lo:sp.hi]
		common := 0
		for common < len(open) && common < len(tr) && open[common].item == tr[common] {
			common++
		}
		for len(open) > common {
			pop()
		}
		for i := range open {
			open[i].count++
		}
		for _, it := range tr[common:] {
			open = append(open, openNode{item: it, pre: preN, count: 1})
			preN++
			lo = append(lo, tid)
		}
		// The span itself ends at the top of the stack; shorter-first
		// sorting put it ahead of every longer transaction in the
		// subtree, so the interval head is the enders' slot.
		tid++
	}
	for len(open) > 0 {
		pop()
	}
	enc.Lo = lo
	enc.Nodes = int(preN)
	return enc
}
