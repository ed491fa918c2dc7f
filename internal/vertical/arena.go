// Scratch arenas and allocation-free combine. Eclat's depth-first hot
// loop creates and discards one payload node per candidate; with fresh
// storage for each, every one of them is an allocation, and at high
// thread counts the allocator (and the garbage it leaves behind)
// becomes the bottleneck — the effect Zymbler's many-core Apriori
// study pins on non-vectorized, allocation-heavy kernels. An Arena is
// a per-worker free list of nodes: CombineManyInto takes each child's
// node and backing storage from the arena when it can (a hit) and falls
// through to the allocator when it cannot (a miss), and Release
// returns a node whose subtree is fully mined. Each arena owns its
// worker's kcount shard: every combine through the arena charges its
// kernel counts there, along with the arena's own hits and misses. It
// also carries the run's minimum support, the bound at which the
// tidset and diffset kernels give up on a child (tidset.
// IntersectAtLeastInto, DiffAtMostInto): the miners recycle such a
// child unread, since only a frequent child's support is used.
//
// Ownership discipline: a node released to an arena must have no live
// children in flight — the miners release a class's atoms only after
// the recursion over that class returns. CombineManyInto never aliases
// its parents' storage (the Into kernels write a disjoint destination
// buffer), which batch_test.go checks as a property.

package vertical

import (
	"repro/internal/bitvec"
	"repro/internal/kcount"
	"repro/internal/nodeset"
	"repro/internal/tidset"
)

// arenaMaxFree caps each per-type free list so a briefly-deep
// recursion cannot pin an unbounded node pool for the rest of the run.
const arenaMaxFree = 1 << 14

// Arena is a single-worker recycling store of payload nodes. It is NOT
// safe for concurrent use: each worker owns one. Nodes released into
// an arena may have been allocated by another worker's arena (a class
// built on one worker is mined on another); buffers simply migrate.
type Arena struct {
	// Kernels is the worker's counter shard. The miners sum their
	// arenas' shards once the team has joined.
	Kernels kcount.Stats

	// minSup is the run's minimum support: the tidset and diffset
	// combines through the arena stop as soon as a child provably falls
	// below it, and report a support below minSup for that child.
	minSup int

	tidsets  []*TidsetNode
	diffsets []*DiffsetNode
	bitvecs  []*BitvectorNode
	tileds   []*TiledNode
	nodesets []*NodesetNode

	// Batched-combine scratch (batch.go), reused across CombineManyInto
	// calls so the block loop never allocates slice headers. Safe
	// because an arena is single-worker and every call fully overwrites
	// the first m entries before reading them.
	batchSrc      []tidset.Set
	batchDst      []tidset.Set
	batchVec      []*bitvec.Vector
	batchOut      []*bitvec.Vector
	batchSup      []int
	batchTiledSrc []*tidset.Tiled
	batchTiledDst []*tidset.Tiled
	batchNLL1     [][]nodeset.L1Entry
	batchNLSrc    []nodeset.List
	batchNLDst    []nodeset.List
	batchNLSum    []int
	nodePys       []Node
	nodeOut       []Node
}

// NewArena returns an empty arena for a run with minimum support
// minSup. A tidset or diffset child combined through it is exact when
// its support reaches minSup; otherwise the kernel may stop early, and
// the child only reports some support below minSup. minSup ≤ 0 keeps
// every combine exact, as a nil arena does.
func NewArena(minSup int) *Arena { return &Arena{minSup: minSup} }

// need is the intersection bound for a child: the run's minimum
// support, 0 (exact) for a nil arena.
func (a *Arena) need() int {
	if a == nil {
		return 0
	}
	return a.minSup
}

// diffLimit is the difference bound for the children of a diffset
// parent of support sup: the longest d(PXY) a frequent child can have,
// sup − minSup. No child's diffset is longer than sup, so a nil arena,
// or minSup ≤ 0, is exact.
func (a *Arena) diffLimit(sup int) int { return sup - a.need() }

// Release returns a node to the arena for reuse. The caller must hold
// the only live reference to the node's payload (its subtree is fully
// mined). Unknown node kinds and nil are ignored. Nil-safe.
func (a *Arena) Release(n Node) {
	if a == nil || n == nil {
		return
	}
	switch c := n.(type) {
	case *TidsetNode:
		if len(a.tidsets) < arenaMaxFree {
			a.tidsets = append(a.tidsets, c)
		}
	case *DiffsetNode:
		if len(a.diffsets) < arenaMaxFree {
			a.diffsets = append(a.diffsets, c)
		}
	case *BitvectorNode:
		if len(a.bitvecs) < arenaMaxFree {
			a.bitvecs = append(a.bitvecs, c)
		}
	case *TiledNode:
		if len(a.tileds) < arenaMaxFree {
			a.tileds = append(a.tileds, c)
		}
	case *NodesetNode:
		if len(a.nodesets) < arenaMaxFree {
			a.nodesets = append(a.nodesets, c)
		}
	}
}

// kernels returns the arena's counter shard; a nil arena counts
// nothing.
func (a *Arena) kernels() *kcount.Stats {
	if a == nil {
		return nil
	}
	return &a.Kernels
}

// getTidset pops a recycled tidset node (buffer truncated, capacity
// kept) or allocates one. Nil-safe: the batched combines accept a nil
// arena (tests, callers without per-worker state) and simply allocate.
func (a *Arena) getTidset() *TidsetNode {
	if a == nil {
		return &TidsetNode{}
	}
	if n := len(a.tidsets); n > 0 {
		nd := a.tidsets[n-1]
		a.tidsets[n-1] = nil
		a.tidsets = a.tidsets[:n-1]
		a.Kernels.ArenaHits++
		return nd
	}
	a.Kernels.ArenaMisses++
	return &TidsetNode{}
}

func (a *Arena) getDiffset() *DiffsetNode {
	if a == nil {
		return &DiffsetNode{}
	}
	if n := len(a.diffsets); n > 0 {
		nd := a.diffsets[n-1]
		a.diffsets[n-1] = nil
		a.diffsets = a.diffsets[:n-1]
		a.Kernels.ArenaHits++
		return nd
	}
	a.Kernels.ArenaMisses++
	return &DiffsetNode{}
}

// getBitvec pops a recycled bitvector node over a universe of n bits.
// Recycled vectors keep their length for the whole run (one mining run
// has one transaction universe), so a length mismatch — possible only
// if one arena serves runs over different databases — is treated as a
// miss and the mismatched node is dropped.
func (a *Arena) getBitvec(nbits int) *BitvectorNode {
	if a == nil {
		return &BitvectorNode{Bits: bitvec.New(nbits)}
	}
	for len(a.bitvecs) > 0 {
		i := len(a.bitvecs) - 1
		nd := a.bitvecs[i]
		a.bitvecs[i] = nil
		a.bitvecs = a.bitvecs[:i]
		if nd.Bits.Len() == nbits {
			a.Kernels.ArenaHits++
			return nd
		}
	}
	a.Kernels.ArenaMisses++
	return &BitvectorNode{Bits: bitvec.New(nbits)}
}
