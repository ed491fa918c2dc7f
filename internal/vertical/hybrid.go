package vertical

import (
	"repro/internal/dataset"
	"repro/internal/kcount"
	"repro/internal/tidset"
)

// Hybrid is a fourth representation beyond the paper's three: Zaki &
// Gouda's actual dEclat recommendation. Level-1 nodes are tidsets (their
// diffsets — complements — are large); each combine then stores
// whichever of the child's tidset or diffset is smaller, switching
// representation on a per-node basis as the search deepens. On dense
// data this keeps the early levels cheap and the deep levels tiny, and
// is benchmarked as extension ablation A7.
const Hybrid Kind = 3

// HybridNode stores either t(X) or d(X) (relative to the parent PX it
// was combined under), whichever was smaller at construction.
type HybridNode struct {
	set    tidset.Set
	isDiff bool
	sup    int
}

// IsDiffset reports which form the node stores (exposed for tests and
// the representation-tour example).
func (n *HybridNode) IsDiffset() bool { return n.isDiff }

func (n *HybridNode) Support() int { return n.sup }
func (n *HybridNode) Bytes() int   { return 4 * len(n.set) }

type hybridRep struct{}

func (hybridRep) Kind() Kind { return Hybrid }

func (h hybridRep) Roots(rec *dataset.Recoded) []Node { return alone(h.RootsOn(rec, dataset.Pass{})) }

// RootsOn builds level-1 nodes as tidsets: at the root, diffsets are
// complements and almost always larger.
func (hybridRep) RootsOn(rec *dataset.Recoded, p dataset.Pass) ([]Node, error) {
	sets, err := tidsetRoots(rec, p)
	if err != nil {
		return nil, err
	}
	nodes := make([]Node, len(sets))
	for i, s := range sets {
		nodes[i] = &HybridNode{set: s, sup: len(s)}
	}
	return nodes, nil
}

// combine merges PX and PY (sharing prefix P, PX's last item first)
// using whichever identities their stored forms allow:
//
//	t,t: t(PXY) = t(PX) ∩ t(PY)
//	t,d: t(PXY) = t(PX) \ d(PY)      (since t(PY) = t(P) \ d(PY), t(PX) ⊆ t(P))
//	d,t: t(PXY) = t(PY) \ d(PX)
//	d,d: d(PXY) = d(PY) \ d(PX), support = support(PX) − |d(PXY)|
//
// When the child's tidset is materialized, the smaller of it and its
// diffset relative to PX (d = t(PX) \ t(PXY), available only in the t,t
// case) is kept. The arena only counts: a hybrid node flips between
// tidset and diffset form per combine, so recycled storage would have
// to be re-typed per call, and the flip bookkeeping costs more than the
// allocation it saves.
func (hybridRep) combine(arena *Arena, a, b *HybridNode) Node {
	st := arena.kernels()
	diff := func(s, t tidset.Set) tidset.Set { return s.DiffInto(t, make(tidset.Set, 0, len(s)), st) }
	n := func(h *HybridNode) Node {
		st.AddNode(kcount.Hybrid, h.Bytes())
		return h
	}
	switch {
	case !a.isDiff && !b.isDiff:
		t := a.set.IntersectInto(b.set, make(tidset.Set, 0, min(len(a.set), len(b.set))), st)
		// Diffset relative to PX: what PX has that the child lost.
		if d := len(a.set) - len(t); d < len(t) {
			// The dEclat switch-over: a tidset lineage turning diffset.
			st.AddHybridFlip()
			return n(&HybridNode{set: diff(a.set, t), isDiff: true, sup: len(t)})
		}
		return n(&HybridNode{set: t, sup: len(t)})
	case !a.isDiff && b.isDiff:
		t := diff(a.set, b.set)
		return n(&HybridNode{set: t, sup: len(t)})
	case a.isDiff && !b.isDiff:
		t := diff(b.set, a.set)
		return n(&HybridNode{set: t, sup: len(t)})
	default:
		d := diff(b.set, a.set)
		return n(&HybridNode{set: d, isDiff: true, sup: a.sup - len(d)})
	}
}
