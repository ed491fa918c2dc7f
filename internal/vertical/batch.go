// Batched (prefix-blocked) combine, the one combine entry point.
// Candidates sharing a prefix PX are contiguous both in the Apriori
// candidate trie and in Eclat's equivalence classes, and a pairwise
// combine would stream the shared parent's payload once per sibling.
// CombineManyInto amortizes it: one resident parent is combined against
// an entire sibling run in a single kernel call
// (tidset.IntersectManyInto, tidset.DiffManyInto, bitvec.AndManyInto),
// which is the cache-blocked batching of Amossen & Pagh applied to the
// paper's §V parent-traffic bottleneck. The parent_words_saved counter
// records the words of parent payload NOT re-streamed relative to one
// pairwise kernel call per sibling.
//
// Results never share backing memory with px or any pys element, and
// arena storage recycles node buffers — with the kernel work charged to
// the arena's counter shard — when an arena is supplied. A nil arena
// allocates fresh nodes (and fresh scratch) and counts nothing, so the
// batched path is usable without per-worker state.

package vertical

import (
	"slices"

	"repro/internal/bitvec"
	"repro/internal/kcount"
	"repro/internal/tidset"
)

// scratchSets returns two length-m Set slices for the set-backed batch
// kernels' source views and destination buffers. Arena-owned so the
// block loop never allocates; a nil arena gets fresh slices.
func (a *Arena) scratchSets(m int) (srcs, dsts []tidset.Set) {
	if a == nil {
		return make([]tidset.Set, m), make([]tidset.Set, m)
	}
	if cap(a.batchSrc) < m {
		a.batchSrc = make([]tidset.Set, m)
		a.batchDst = make([]tidset.Set, m)
	}
	return a.batchSrc[:m], a.batchDst[:m]
}

// NodeScratch returns two length-m node slices owned by the arena, for
// callers gathering a sibling run ahead of CombineManyInto: the pys
// argument and the out destination. Contents are unspecified; callers
// must overwrite [:m] before reading. A nil arena gets fresh slices.
func (a *Arena) NodeScratch(m int) (pys, out []Node) {
	if a == nil {
		return make([]Node, m), make([]Node, m)
	}
	if cap(a.nodePys) < m {
		a.nodePys = make([]Node, m)
		a.nodeOut = make([]Node, m)
	}
	return a.nodePys[:m], a.nodeOut[:m]
}

// scratchVecs is scratchSets' bitvector analogue, plus the per-child
// support accumulator AndManyInto fills.
func (a *Arena) scratchVecs(m int) (pys, outs []*bitvec.Vector, sups []int) {
	if a == nil {
		return make([]*bitvec.Vector, m), make([]*bitvec.Vector, m), make([]int, m)
	}
	if cap(a.batchVec) < m {
		a.batchVec = make([]*bitvec.Vector, m)
		a.batchOut = make([]*bitvec.Vector, m)
		a.batchSup = make([]int, m)
	}
	return a.batchVec[:m], a.batchOut[:m], a.batchSup[:m]
}

func (tidsetRep) CombineManyInto(px Node, pys []Node, out []Node, a *Arena) {
	m := len(pys)
	if m == 0 {
		return
	}
	x := px.(*TidsetNode)
	srcs, dsts := a.scratchSets(m)
	for i, py := range pys {
		y := py.(*TidsetNode)
		srcs[i] = y.TIDs
		nd := a.getTidset()
		// Presize to the intersection's upper bound: an undersized
		// recycled buffer would re-grow inside the merge loop, paying a
		// copy per doubling — dearer than one right-sized allocation.
		if bound := min(len(x.TIDs), len(y.TIDs)); cap(nd.TIDs) < bound {
			nd.TIDs = make(tidset.Set, 0, bound)
		}
		dsts[i] = nd.TIDs
		out[i] = nd
	}
	tidset.IntersectManyInto(x.TIDs, srcs, dsts, a.need(), a.kernels())
	bytes := 0
	for i := range dsts {
		nd := out[i].(*TidsetNode)
		nd.TIDs = dsts[i]
		bytes += nd.Bytes()
	}
	a.kernels().AddNodes(kcount.Tidset, m, bytes)
}

// CombineManyInto batches the Equation 1 combine d(PY) − d(PX). A block
// holding a tidset-side root (level 2 of a run with sparse items) falls
// back to one pairwise combine per sibling, whose kernel depends on each
// pair's sides; no batch counters are charged for it.
func (r diffsetRep) CombineManyInto(px Node, pys []Node, out []Node, a *Arena) {
	m := len(pys)
	if m == 0 {
		return
	}
	x := px.(*DiffsetNode)
	if x.tids || slices.ContainsFunc(pys, func(py Node) bool { return py.(*DiffsetNode).tids }) {
		for i, py := range pys {
			out[i] = r.combine(a, x, py.(*DiffsetNode))
		}
		return
	}
	srcs, dsts := a.scratchSets(m)
	for i, py := range pys {
		y := py.(*DiffsetNode)
		srcs[i] = y.Diff
		nd := a.getDiffset()
		if bound := x.childBound(y); cap(nd.Diff) < bound {
			nd.Diff = make(tidset.Set, 0, bound)
		}
		dsts[i] = nd.Diff
		out[i] = nd
	}
	tidset.DiffManyInto(x.Diff, srcs, dsts, a.diffLimit(x.sup), a.kernels()) // d(PXY) = d(PY) − d(PX)
	bytes := 0
	for i := range dsts {
		nd := out[i].(*DiffsetNode)
		nd.Diff = dsts[i]
		nd.sup = x.sup - len(nd.Diff)
		bytes += nd.Bytes()
	}
	a.kernels().AddNodes(kcount.Diffset, m, bytes)
}

// combine is CombineManyInto's fallback for one root pair of any sides:
// d(xy) = t(x) − t(y) (DiffsetNode.diffInto).
func (diffsetRep) combine(a *Arena, x, y *DiffsetNode) Node {
	n := a.getDiffset()
	if bound := x.childBound(y); cap(n.Diff) < bound {
		n.Diff = make(tidset.Set, 0, bound)
	}
	n.Diff = x.diffInto(y, a.diffLimit(x.sup), n.Diff, a.kernels())
	n.sup = x.sup - len(n.Diff)
	a.kernels().AddNode(kcount.Diffset, n.Bytes())
	return n
}

func (bitvectorRep) CombineManyInto(px Node, pys []Node, out []Node, a *Arena) {
	m := len(pys)
	if m == 0 {
		return
	}
	x := px.(*BitvectorNode)
	vys, vouts, sups := a.scratchVecs(m)
	for i, py := range pys {
		vys[i] = py.(*BitvectorNode).Bits
		nd := a.getBitvec(x.Bits.Len())
		vouts[i] = nd.Bits
		out[i] = nd
	}
	bitvec.AndManyInto(x.Bits, vys, vouts, sups, a.kernels())
	bytes := 0
	for i := range sups {
		nd := out[i].(*BitvectorNode)
		nd.sup = sups[i]
		bytes += nd.Bytes()
	}
	a.kernels().AddNodes(kcount.Bitvector, m, bytes)
}

// hybridRep batches by falling back to one pairwise combine per
// sibling: a hybrid node flips between tidset and diffset form per
// child, so there is no shared-parent kernel to amortize — and no batch
// counters are charged, since no parent words are actually saved.
func (h hybridRep) CombineManyInto(px Node, pys []Node, out []Node, a *Arena) {
	for i, py := range pys {
		out[i] = h.combine(a, px.(*HybridNode), py.(*HybridNode))
	}
}
