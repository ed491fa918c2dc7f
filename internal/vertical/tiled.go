// The tiled representation: the tidset semantics (t(PXY) = t(PX) ∩
// t(PY), support = cardinality) over the tile-partitioned layout of
// tidset.Tiled — 128-TID tiles with exact occupancy summaries and a
// per-tile sparse/dense payload switch. It is a full Representation
// peer: its CombineManyInto recycles through the arena and runs the
// prefix-blocked batch path, and it is Degradable like the
// other unbounded layouts. Everything above vertical (Eclat, Apriori, the
// hybrid degrade machinery, runctl budgets) is layout-oblivious.

package vertical

import (
	"repro/internal/dataset"
	"repro/internal/kcount"
	"repro/internal/tidset"
)

// Tiled is the tile-partitioned tidset layout (an extension beyond the
// paper's three representations, like Hybrid).
const Tiled Kind = 4

// TiledNode carries t(X) in tiled form for one itemset.
type TiledNode struct {
	T *tidset.Tiled
}

func (n *TiledNode) Support() int { return n.T.Len() }
func (n *TiledNode) Bytes() int   { return n.T.Bytes() }

type tiledRep struct{}

func (tiledRep) Kind() Kind { return Tiled }

func (r tiledRep) Roots(rec *dataset.Recoded) []Node { return alone(r.RootsOn(rec, dataset.Pass{})) }

// RootsOn builds the tidsets on the team and tiles them after it joins.
func (tiledRep) RootsOn(rec *dataset.Recoded, p dataset.Pass) ([]Node, error) {
	sets, err := tidsetRoots(rec, p)
	if err != nil {
		return nil, err
	}
	nodes := make([]Node, len(sets))
	for i, s := range sets {
		nodes[i] = &TiledNode{T: tidset.FromSet(s)}
	}
	return nodes, nil
}

// getTiled pops a recycled tiled node (backing arrays truncated,
// capacity kept) or allocates one. Nil-safe like its siblings.
func (a *Arena) getTiled() *TiledNode {
	if a == nil {
		return &TiledNode{T: &tidset.Tiled{}}
	}
	if n := len(a.tileds); n > 0 {
		nd := a.tileds[n-1]
		a.tileds[n-1] = nil
		a.tileds = a.tileds[:n-1]
		a.Kernels.ArenaHits++
		return nd
	}
	a.Kernels.ArenaMisses++
	return &TiledNode{T: &tidset.Tiled{}}
}

// scratchTileds returns two length-m *Tiled slices for the batched
// kernel's sibling views and destinations, arena-owned like
// scratchSets.
func (a *Arena) scratchTileds(m int) (srcs, dsts []*tidset.Tiled) {
	if a == nil {
		return make([]*tidset.Tiled, m), make([]*tidset.Tiled, m)
	}
	if cap(a.batchTiledSrc) < m {
		a.batchTiledSrc = make([]*tidset.Tiled, m)
		a.batchTiledDst = make([]*tidset.Tiled, m)
	}
	return a.batchTiledSrc[:m], a.batchTiledDst[:m]
}

func (tiledRep) CombineManyInto(px Node, pys []Node, out []Node, a *Arena) {
	m := len(pys)
	if m == 0 {
		return
	}
	x := px.(*TiledNode)
	srcs, dsts := a.scratchTileds(m)
	for i, py := range pys {
		srcs[i] = py.(*TiledNode).T
		nd := a.getTiled()
		dsts[i] = nd.T
		out[i] = nd
	}
	tidset.TiledIntersectManyInto(x.T, srcs, dsts, a.kernels())
	bytes := 0
	for i := range dsts {
		bytes += out[i].Bytes()
	}
	a.kernels().AddNodes(kcount.Tiled, m, bytes)
}
