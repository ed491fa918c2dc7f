// The nodeset representation: Deng's DiffNodesets (PAPERS.md,
// arXiv:1507.01345) as a full Representation peer. Roots build the
// PPC-encoded prefix tree once and hand each item its N-list; level-2
// combines run the ancestor merge over two N-lists; deeper combines
// are plain sorted differences of DiffNodesets — the diffset
// recurrence d(PXY) = d(PY) − d(PX) with tree nodes in place of
// transactions, which is why the miners' combine order, the arena free
// lists and the prefix-blocked batch path all apply unchanged. The co-occurrence compression of the tree makes the
// lists (and every merge over them) shorter than the equivalent
// tidset/diffset work on dense databases.
//
// The encoding's pair matrix answers the infrequent 2-itemsets: a pair
// it puts below minsup is born support-only, with an empty list, and
// the miners release it unread. Every other pair runs the ancestor
// merge when it is created, so a node is complete when built and never
// written afterwards — parallel miners may share it freely.
//
// Mid-run degrade is exact, not approximate: the PPC pass assigns
// every tree node a contiguous interval of relabeled TIDs, so a
// DiffNodeset materializes to precisely d(X) = t(PX) − t(X) in the
// relabeled space, and a whole level converts to DiffsetNodes whose
// subsequent combines are exact (the relabeling is a bijection on
// transactions, so supports — the only observable — are unchanged).

package vertical

import (
	"repro/internal/dataset"
	"repro/internal/kcount"
	"repro/internal/nodeset"
	"repro/internal/tidset"
)

// Nodeset is the PPC-tree-encoded DiffNodeset representation (an
// extension beyond the paper's three, like Hybrid and Tiled).
const Nodeset Kind = 5

// NodesetNode carries one itemset's node list: level-1 roots hold the
// item's N-list (pre/post/count triples), deeper nodes hold the
// DiffNodeset DN(X) = NL(parent) − NL(X). Both reference nodes of the
// per-run Encoding that Roots built. A 2-itemset the pair matrix proves
// infrequent carries only its support: its DN is empty and must not be
// extended.
type NodesetNode struct {
	Enc  *nodeset.Encoding
	L1   []nodeset.L1Entry // level-1 N-list; nil below the roots
	DN   nodeset.List      // DiffNodeset; nil at the roots
	code int               // dense item code; meaningful at roots only
	sup  int
	root bool
}

func (n *NodesetNode) Support() int { return n.sup }

// Bytes is the node's own list footprint. The per-run Encoding (the
// N-list arena and the degrade interval table) is shared by every node
// of the run and accounted by the roots' N-lists, which alias it.
func (n *NodesetNode) Bytes() int {
	if n.root {
		return nodeset.L1EntryBytes * len(n.L1)
	}
	return nodeset.EntryBytes * len(n.DN)
}

type nodesetRep struct{}

func (nodesetRep) Kind() Kind { return Nodeset }

func (r nodesetRep) Roots(rec *dataset.Recoded) []Node { return alone(r.RootsOn(rec, dataset.Pass{})) }

// RootsOn builds the PPC encoding as the root loop's one task: the
// tree comes from one prefix-sorted walk over every row, which the row
// chunks cannot split, so the loop runs one chunk of no rows (one
// modelled block) that builds it all.
func (nodesetRep) RootsOn(rec *dataset.Recoded, p dataset.Pass) ([]Node, error) {
	var enc *nodeset.Encoding
	err := p.For(rootsLoop, []dataset.Chunk{{}}, func(int) (int, int) {
		enc = nodeset.Build(rec)
		read, written := 0, 0
		for i, fi := range rec.Items {
			read += 4 * fi.Support
			written += nodeset.L1EntryBytes * len(enc.NLists[i])
		}
		return read, written
	})
	if err != nil {
		return nil, err
	}
	nodes := make([]Node, len(rec.Items))
	for i := range rec.Items {
		nodes[i] = &NodesetNode{Enc: enc, L1: enc.NLists[i], code: i, sup: rec.Items[i].Support, root: true}
	}
	return nodes, nil
}

// levels panics when a combine crosses levels. The miners only combine
// equivalence-class siblings, so both parents are roots (N-list form)
// or both are deeper (DiffNodeset form); a mixed pair would silently
// read a nil list, so it is rejected loudly instead.
func levels(a, b *NodesetNode) bool {
	if a.root != b.root {
		panic("vertical: nodeset combine across tree levels (parents must be class siblings)")
	}
	return a.root
}

// infrequentPair returns support({x, y}) and true when the pair matrix
// puts the 2-itemset of roots x and y below the encoding's minsup.
func infrequentPair(x, y *NodesetNode) (int, bool) {
	sup, ok := x.Enc.PairSupport(x.code, y.code)
	return sup, ok && sup < x.Enc.MinSup
}

// getNodeset pops a recycled nodeset node (list truncated, capacity
// kept) or allocates one. Nil-safe like its siblings. Recycled nodes
// may have been roots; the root form is reset so the node can carry a
// DiffNodeset.
func (a *Arena) getNodeset() *NodesetNode {
	if a == nil {
		return &NodesetNode{}
	}
	if n := len(a.nodesets); n > 0 {
		nd := a.nodesets[n-1]
		a.nodesets[n-1] = nil
		a.nodesets = a.nodesets[:n-1]
		nd.L1, nd.root = nil, false
		a.Kernels.ArenaHits++
		return nd
	}
	a.Kernels.ArenaMisses++
	return &NodesetNode{}
}

// scratchNodesets returns the batched kernel's per-call slices: sibling
// N-list views, sibling DiffNodeset views, destination lists and count
// sums, arena-owned like scratchSets.
func (a *Arena) scratchNodesets(m int) (l1s [][]nodeset.L1Entry, srcs, dsts []nodeset.List, sums []int) {
	if a == nil {
		return make([][]nodeset.L1Entry, m), make([]nodeset.List, m), make([]nodeset.List, m), make([]int, m)
	}
	if cap(a.batchNLL1) < m {
		a.batchNLL1 = make([][]nodeset.L1Entry, m)
		a.batchNLSrc = make([]nodeset.List, m)
		a.batchNLDst = make([]nodeset.List, m)
		a.batchNLSum = make([]int, m)
	}
	return a.batchNLL1[:m], a.batchNLSrc[:m], a.batchNLDst[:m], a.batchNLSum[:m]
}

// CombineManyInto runs the block's kernel over the children that need a
// list — at the roots, the pairs the matrix does not prove infrequent —
// packed into the first k scratch slots; the infrequent pairs are born
// support-only in place.
func (nodesetRep) CombineManyInto(px Node, pys []Node, out []Node, a *Arena) {
	m := len(pys)
	if m == 0 {
		return
	}
	x := px.(*NodesetNode)
	atRoots := levels(x, pys[0].(*NodesetNode))
	l1s, srcs, dsts, sums := a.scratchNodesets(m)
	k := 0
	for i, py := range pys {
		y := py.(*NodesetNode)
		nd := a.getNodeset()
		nd.Enc = x.Enc
		out[i] = nd
		if atRoots {
			if sup, ok := infrequentPair(x, y); ok {
				nd.sup, nd.DN = sup, nd.DN[:0]
				continue
			}
			l1s[k] = y.L1
			if cap(nd.DN) < len(x.L1) {
				nd.DN = make(nodeset.List, 0, len(x.L1))
			}
		} else {
			srcs[k] = y.DN
			if cap(nd.DN) < len(y.DN) {
				nd.DN = make(nodeset.List, 0, len(y.DN))
			}
		}
		dsts[k] = nd.DN
		k++
	}
	if atRoots {
		nodeset.DiffL1ManyInto(x.L1, l1s[:k], dsts[:k], sums[:k], a.kernels())
	} else {
		nodeset.DiffManyInto(x.DN, srcs[:k], dsts[:k], sums[:k], a.kernels())
	}
	bytes, k := 0, 0
	for i, py := range pys {
		if atRoots {
			if _, ok := infrequentPair(x, py.(*NodesetNode)); ok {
				continue
			}
		}
		nd := out[i].(*NodesetNode)
		nd.DN, nd.sup = dsts[k], x.sup-sums[k]
		bytes += nd.Bytes()
		k++
	}
	a.kernels().AddNodes(kcount.Nodeset, m, bytes)
}

// diffTIDs materializes a DiffNodeset to its relabeled TID set via the
// encoding's interval table: entries are sorted by pre-order rank and
// an antichain's intervals are disjoint and ascending, so the
// expansion is already a sorted set. This is the exact bridge from the
// nodeset representation to the diffset one: trans(DN(X)) = t(PX) −
// t(X) in the relabeled transaction space.
func (n *NodesetNode) diffTIDs() tidset.Set {
	out := make(tidset.Set, 0, n.DN.CountSum())
	for _, e := range n.DN {
		lo := n.Enc.Lo[e.Pre]
		for k := uint32(0); k < e.Count; k++ {
			out = append(out, tidset.TID(lo+k))
		}
	}
	return out
}

// rootTIDs materializes a root's N-list to the item's relabeled
// tidset.
func (n *NodesetNode) rootTIDs() tidset.Set {
	sup := 0
	for _, e := range n.L1 {
		sup += int(e.Count)
	}
	out := make(tidset.Set, 0, sup)
	for _, e := range n.L1 {
		lo := n.Enc.Lo[e.Pre]
		for k := uint32(0); k < e.Count; k++ {
			out = append(out, tidset.TID(lo+k))
		}
	}
	return out
}
