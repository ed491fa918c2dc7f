// Package vertical implements the three vertical transaction
// representations of §II-B of the paper — tidset, bitvector, and diffset —
// behind a single Representation interface that both miners (Apriori and
// Eclat) program against.
//
// A Node is the per-itemset payload: whatever the representation needs to
// compute the support of children. The only structural operation the
// miners perform is the combine PX, PY → PXY, where PX and PY are
// k-itemsets sharing a (k−1)-prefix P and PX's last item precedes PY's.
// It runs one prefix block at a time: CombineManyInto joins one PX with
// a run of its later siblings PY (batch.go).
//
//	tidset:    t(PXY) = t(PX) ∩ t(PY),        support = |t(PXY)|
//	bitvector: b(PXY) = b(PX) AND b(PY),      support = popcount
//	diffset:   d(PXY) = d(PY) − d(PX),        support = support(PX) − |d(PXY)|
//
// The diffset rule is Equation 1 of the paper (after Zaki & Gouda); the
// operand order therefore matters for diffsets, and the shared parent of
// a block is always the one whose last item orders first. As in Zaki &
// Gouda's dEclat, a diffset root holds the shorter side of its item: a
// sparse item keeps its tidset t(x), a dense one the complement
// d(x) = D − t(x), and level 2 forms d(xy) = t(x) − t(y) from whichever
// sides the two roots hold (DiffsetNode.diffInto). From level 2 on every
// diffset is an ordinary d(PX) and Equation 1 applies unchanged.
package vertical

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/kcount"
	"repro/internal/tidset"
)

// Kind selects a vertical representation: the paper's three (Tidset,
// Bitvector, Diffset) plus the Hybrid, Tiled and Nodeset extensions
// (hybrid.go, tiled.go, nodesetrep.go); AllKinds lists all six.
type Kind int

const (
	Tidset Kind = iota
	Bitvector
	Diffset
)

// String returns the paper's name for the representation.
func (k Kind) String() string {
	switch k {
	case Tidset:
		return "tidset"
	case Bitvector:
		return "bitvector"
	case Diffset:
		return "diffset"
	case Hybrid:
		return "hybrid"
	case Tiled:
		return "tiled"
	case Nodeset:
		return "nodeset"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists the paper's three representations, in the paper's order.
func Kinds() []Kind { return []Kind{Tidset, Bitvector, Diffset} }

// AllKinds is the canonical list of every representation the package
// implements: the paper's three plus the Hybrid extension (hybrid.go),
// the Tiled layout (tiled.go) and the Nodeset representation
// (nodesetrep.go). Adding a Kind means adding it here; kinds_test.go
// walks this slice and fails any kind missing from New, ParseKind,
// String, the arena/batch paths or the degrade tables, so the
// non-exhaustive switches below cannot silently skip a new entry.
func AllKinds() []Kind { return []Kind{Tidset, Bitvector, Diffset, Hybrid, Tiled, Nodeset} }

// ParseKind maps a name ("tidset", "bitvector", "diffset", "hybrid",
// "tiled", "nodeset") to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "tidset":
		return Tidset, nil
	case "bitvector":
		return Bitvector, nil
	case "diffset":
		return Diffset, nil
	case "hybrid":
		return Hybrid, nil
	case "tiled":
		return Tiled, nil
	case "nodeset":
		return Nodeset, nil
	}
	return 0, fmt.Errorf("vertical: unknown representation %q", s)
}

// Node is the per-itemset payload of one representation.
type Node interface {
	// Support returns the number of transactions containing the itemset.
	Support() int
	// Bytes returns the payload's memory footprint, the quantity the
	// cost model uses as its NUMA-traffic proxy. Reading a
	// parent during a combine moves this many bytes.
	Bytes() int
}

// Representation builds and combines Nodes of one Kind. Both miners
// combine only through CombineManyInto, one prefix block per call; a
// block may hold a single sibling (Eclat's level 2 runs one per pair).
type Representation interface {
	Kind() Kind
	// Roots builds the level-1 node for every frequent item of rec,
	// indexed by dense item code, on a team of one: RootsOn with the
	// zero dataset.Pass. It counts nothing; the miners charge the roots
	// with CountRoots.
	Roots(rec *dataset.Recoded) []Node
	// RootsOn is Roots on p's team, as the loop vertical/roots over
	// rec's row chunks (roots.go), checking p's Control at every chunk
	// boundary. A stopped build returns the stop cause and no nodes.
	RootsOn(rec *dataset.Recoded, p dataset.Pass) ([]Node, error)
	// CombineManyInto combines one parent px, the node of PX, against
	// every sibling PY of a prefix block, storing the node of PXY for
	// pys[i] in out[i] (len(out) must be at least len(pys)); its Support
	// is the candidate's support. The batched kernels stream the shared
	// parent once per block (batch.go). Child nodes and their backing
	// buffers come from arena when it can recycle them (arena.go), and
	// the kernel work is charged to its counter shard; a nil arena
	// allocates fresh storage and counts nothing. No child shares
	// backing memory with px or any pys element. The tidset and diffset
	// kernels stop as soon as a child cannot reach the arena's minimum
	// support: such a child reports some support below it, not its
	// exact support.
	CombineManyInto(px Node, pys []Node, out []Node, arena *Arena)
}

// New returns the Representation for kind.
func New(kind Kind) Representation {
	switch kind {
	case Tidset:
		return tidsetRep{}
	case Bitvector:
		return bitvectorRep{}
	case Diffset:
		return diffsetRep{}
	case Hybrid:
		return hybridRep{}
	case Tiled:
		return tiledRep{}
	case Nodeset:
		return nodesetRep{}
	}
	panic(fmt.Sprintf("vertical: unknown kind %d", int(kind)))
}

// --- tidset -----------------------------------------------------------

// TidsetNode carries t(X) for one itemset.
type TidsetNode struct {
	TIDs tidset.Set
}

func (n *TidsetNode) Support() int { return len(n.TIDs) }
func (n *TidsetNode) Bytes() int   { return 4 * len(n.TIDs) }

type tidsetRep struct{}

func (tidsetRep) Kind() Kind { return Tidset }

func (r tidsetRep) Roots(rec *dataset.Recoded) []Node { return alone(r.RootsOn(rec, dataset.Pass{})) }

func (tidsetRep) RootsOn(rec *dataset.Recoded, p dataset.Pass) ([]Node, error) {
	sets, err := tidsetRoots(rec, p)
	if err != nil {
		return nil, err
	}
	nodes := make([]Node, len(sets))
	for i, s := range sets {
		nodes[i] = &TidsetNode{TIDs: s}
	}
	return nodes, nil
}

// --- bitvector --------------------------------------------------------

// BitvectorNode carries the transaction bitmask and a cached popcount.
type BitvectorNode struct {
	Bits *bitvec.Vector
	sup  int
}

func (n *BitvectorNode) Support() int { return n.sup }
func (n *BitvectorNode) Bytes() int   { return 8 * n.Bits.Words() }

type bitvectorRep struct{}

func (bitvectorRep) Kind() Kind { return Bitvector }

func (r bitvectorRep) Roots(rec *dataset.Recoded) []Node {
	return alone(r.RootsOn(rec, dataset.Pass{}))
}

func (bitvectorRep) RootsOn(rec *dataset.Recoded, p dataset.Pass) ([]Node, error) {
	vecs, err := bitvectorRoots(rec, p)
	if err != nil {
		return nil, err
	}
	nodes := make([]Node, len(vecs))
	for i, v := range vecs {
		nodes[i] = &BitvectorNode{Bits: v, sup: rec.Items[i].Support}
	}
	return nodes, nil
}

// --- diffset ----------------------------------------------------------

// DiffsetNode carries d(X) and the itemset's support, which the diffset
// alone cannot reproduce (support(PXY) = support(PX) − |d(PXY)|). A
// level-1 node holds the shorter side of its item (tidsSide): Diff is
// t(x) for a sparse item and d(x) = D − t(x) for a dense one. Every node
// below the roots holds an ordinary diffset.
type DiffsetNode struct {
	Diff tidset.Set
	sup  int
	tids bool // Diff holds t(x): a sparse root
}

// tidsSide reports whether the diffset root of an item with support sup
// in a universe of n transactions stores its tidset: 2·sup ≤ n, so t(x)
// is no longer than its complement.
func tidsSide(sup, n int) bool { return 2*sup <= n }

// diffsetRoot is the diffset root of the item whose tidset is t: t
// itself, not copied, when the item is sparse, else its complement.
func diffsetRoot(t tidset.Set, n int) *DiffsetNode {
	if tidsSide(len(t), n) {
		return &DiffsetNode{Diff: t, sup: len(t), tids: true}
	}
	return &DiffsetNode{Diff: t.Complement(n), sup: len(t)}
}

// childBound is the capacity a combine presizes d(xy) to. Equation 1
// keeps its bound |d(y)|; a pair with a tidset-side root is bounded by
// sup(x), by |d(y)| when y is a complement root, and by |D| − sup(y)
// when x is one (|D| = sup(x) + |d(x)|).
func (x *DiffsetNode) childBound(y *DiffsetNode) int {
	switch {
	case !x.tids && !y.tids:
		return len(y.Diff)
	case !y.tids:
		return min(x.sup, len(y.Diff))
	case !x.tids:
		return min(x.sup, x.sup+len(x.Diff)-y.sup)
	}
	return x.sup
}

// diffInto appends d(xy) = t(x) − t(y) to dst[:0], from the sides x and
// y hold (x's item orders before y's). The two differences stop past
// limit elements (DiffAtMostInto), where the child's support
// sup(x) − |d(xy)| has already fallen below the bound the limit encodes;
// the other two sides are exact:
//
//	d(x), d(y): d(y) − d(x)            (Equation 1; every level ≥ 2 pair)
//	t(x), t(y): t(x) − t(y)
//	t(x), d(y): t(x) ∩ d(y)
//	d(x), t(y): D − (d(x) ∪ t(y)),     |D| = sup(x) + |d(x)|
//
// Ascending-support codes never form the last pair, since an item
// coded after a dense one is dense too; a by-code recode does.
func (x *DiffsetNode) diffInto(y *DiffsetNode, limit int, dst tidset.Set, st *kcount.Stats) tidset.Set {
	switch {
	case !x.tids && !y.tids:
		return y.Diff.DiffAtMostInto(x.Diff, limit, dst, st)
	case x.tids && y.tids:
		return x.Diff.DiffAtMostInto(y.Diff, limit, dst, st)
	case x.tids:
		return x.Diff.IntersectInto(y.Diff, dst, st)
	}
	return x.Diff.UnionComplementInto(y.Diff, x.sup+len(x.Diff), dst, st)
}

func (n *DiffsetNode) Support() int { return n.sup }
func (n *DiffsetNode) Bytes() int   { return 4 * len(n.Diff) }

type diffsetRep struct{}

func (diffsetRep) Kind() Kind { return Diffset }

func (r diffsetRep) Roots(rec *dataset.Recoded) []Node { return alone(r.RootsOn(rec, dataset.Pass{})) }

// RootsOn seeds each level-1 node on its item's shorter side: a dense
// item gets the complement of its tidset within the transaction
// universe (paper Figure 2(a)), d(x) = D − t(x), a sparse item
// (2·support ≤ |D|) its tidset t(x), as dEclat starts. Either way the
// node carries support(x), and level 2 is an ordinary diffset.
func (diffsetRep) RootsOn(rec *dataset.Recoded, p dataset.Pass) ([]Node, error) {
	sets, tids, err := diffsetRoots(rec, p)
	if err != nil {
		return nil, err
	}
	nodes := make([]Node, len(sets))
	for i, d := range sets {
		nodes[i] = &DiffsetNode{Diff: d, sup: rec.Items[i].Support, tids: tids[i]}
	}
	return nodes, nil
}

// Degradable reports whether a run over kind can degrade to diffsets
// mid-run when its memory budget is crossed. Diffset needs no cure and
// Hybrid already switches per node, so the representations that can
// blow past one blade (§V-A) qualify: the paper's tidset and
// bitvector, the tiled layout (footprint tracks the tidset's), and
// the nodeset representation, whose interval table materializes exact
// relabeled diffsets.
func Degradable(kind Kind) bool {
	return kind == Tidset || kind == Bitvector || kind == Tiled || kind == Nodeset
}

// DegradeChild converts a node of a kind Degradable accepts (tidset,
// bitvector, tiled or nodeset) into the equivalent DiffsetNode relative
// to its generation parent: d(X) = t(parent) − t(X), the standard
// diffset layout, so subsequent sibling combines under diffsetRep are
// exact. Returns nil for kinds Degradable rejects. The conversion's
// kernel work is charged to st (nil counts nothing).
//
// This is the engine's adaptive application of the paper's own remedy:
// when the breadth-first payload footprint crosses the run's memory
// budget, core.Cure rewrites a level in place as diffsets and the run
// continues under the bounded representation — or stops, when the
// diffsets would not be smaller.
func DegradeChild(parent, child Node, st *kcount.Stats) Node {
	switch c := child.(type) {
	case *TidsetNode:
		p := parent.(*TidsetNode)
		return &DiffsetNode{Diff: p.TIDs.DiffInto(c.TIDs, make(tidset.Set, 0, len(p.TIDs)), st), sup: len(c.TIDs)}
	case *BitvectorNode:
		p := parent.(*BitvectorNode)
		return &DiffsetNode{Diff: bitvec.New(p.Bits.Len()).AndNotInto(p.Bits, c.Bits, st).TIDs(), sup: c.sup}
	case *TiledNode:
		p := parent.(*TiledNode)
		d := p.T.DiffInto(c.T, &tidset.Tiled{}, st)
		return &DiffsetNode{Diff: d.AppendTo(nil), sup: c.T.Len()}
	case *NodesetNode:
		// The DiffNodeset already IS d(X) = t(PX) − t(X), with tree
		// nodes standing for runs of relabeled transactions; expanding
		// the intervals yields the exact diffset (parent unused). Every
		// live node of a level degrades together, so the relabeled TID
		// space is globally consistent for all later diffset combines.
		return &DiffsetNode{Diff: c.diffTIDs(), sup: c.sup}
	}
	return nil
}

// DegradeRoot converts a level-1 node into the diffset root
// diffsetRep.Roots builds for the same item, on the item's shorter
// side: t(x) when 2·support ≤ |D|, else d(x) = D − t(x). A root cure
// therefore never grows a tidset root's payload. A tidset root's TIDs
// are wrapped, not copied: roots are never released to an arena, so
// nothing writes them afterwards. Returns nil for kinds Degradable
// rejects.
func DegradeRoot(n Node, universe int) Node {
	switch c := n.(type) {
	case *TidsetNode:
		return diffsetRoot(c.TIDs, universe)
	case *BitvectorNode:
		return diffsetRoot(c.Bits.TIDs(), universe)
	case *TiledNode:
		return diffsetRoot(c.T.ToSet(), universe)
	case *NodesetNode:
		// Over the relabeled universe: transactions the frequent-item
		// filter emptied never entered the tree, so they occupy the
		// label range above Encoding.Total and fall into the complement
		// of every item, exactly as in the original space.
		return diffsetRoot(c.rootTIDs(), universe)
	}
	return nil
}

// CountRoots charges a representation's level-1 nodes to st: their
// count and bytes under the kind's nodes_built / bytes_materialized
// counters, and for nodeset roots the PPC tree the encoding pass ranked
// (ppc_nodes_built). The miners call it right after Roots, which counts
// nothing itself.
func CountRoots(st *kcount.Stats, kind Kind, roots []Node) {
	st.AddNodes(int(kind), len(roots), int(NodesBytes(roots)))
	if len(roots) > 0 {
		if n, ok := roots[0].(*NodesetNode); ok {
			st.AddPPCNodes(n.Enc.Nodes)
		}
	}
}

// NodesBytes sums the payload footprint of a node slice (nil entries
// allowed), the quantity the run-control memory budget accounts.
func NodesBytes(nodes []Node) int64 {
	var b int64
	for _, n := range nodes {
		if n != nil {
			b += int64(n.Bytes())
		}
	}
	return b
}

// CombineCost returns the number of bytes one child's combine reads from
// its parents: the quantity charged as communication when a parent lives
// on a remote NUMA node. It is simply the sum of the parents' footprints.
func CombineCost(px, py Node) int { return px.Bytes() + py.Bytes() }
