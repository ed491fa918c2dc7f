package vertical

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/nodeset"
	"repro/internal/tidset"
)

// payload returns a defensive copy of a node's logical content, for
// comparing before/after mutation.
func payload(n Node) []tidset.TID {
	switch c := n.(type) {
	case *TidsetNode:
		return append([]tidset.TID(nil), c.TIDs...)
	case *DiffsetNode:
		return append([]tidset.TID(nil), c.Diff...)
	case *HybridNode:
		return append([]tidset.TID(nil), c.set...)
	case *BitvectorNode:
		return c.Bits.TIDs()
	case *TiledNode:
		return c.T.ToSet()
	case *NodesetNode:
		// The logical content is the relabeled TID set the lists stand
		// for — what the degrade shim materializes.
		if c.root {
			return c.rootTIDs()
		}
		return c.diffTIDs()
	}
	panic(fmt.Sprintf("unknown node %T", n))
}

func samePayload(a, b []tidset.TID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scribble overwrites a node's backing memory — the full capacity of a
// set-backed node, not just its length, so an empty child whose buffer
// secretly aliases a parent's array is caught too.
func scribble(n Node) {
	switch c := n.(type) {
	case *TidsetNode:
		s := c.TIDs[:cap(c.TIDs)]
		for i := range s {
			s[i] = ^tidset.TID(0)
		}
	case *DiffsetNode:
		s := c.Diff[:cap(c.Diff)]
		for i := range s {
			s[i] = ^tidset.TID(0)
		}
	case *BitvectorNode:
		for i := 0; i < c.Bits.Len(); i++ {
			if i%2 == 0 {
				c.Bits.Set(tidset.TID(i))
			} else {
				c.Bits.Clear(tidset.TID(i))
			}
		}
	case *TiledNode:
		c.T.Poison()
	case *NodesetNode:
		s := c.DN[:cap(c.DN)]
		for i := range s {
			s[i] = nodeset.Entry{Pre: ^uint32(0), Count: ^uint32(0)}
		}
	}
}

// recyclingKinds are the kinds whose CombineManyInto recycles arena nodes:
// the paper's three plus the tiled layout and the nodeset
// representation (hybrid's arena only counts).
func recyclingKinds() []Kind { return append(Kinds(), Tiled, Nodeset) }

func randomRecoded(t testing.TB, rng *rand.Rand, items, txns int) *dataset.Recoded {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < txns; i++ {
		wrote := false
		for it := 1; it <= items; it++ {
			if rng.Intn(2) == 0 {
				if wrote {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "%d", it)
				wrote = true
			}
		}
		if !wrote {
			fmt.Fprintf(&sb, "%d", 1+rng.Intn(items))
		}
		sb.WriteByte('\n')
	}
	db, err := dataset.ReadFIMI("random", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return db.Recode(1)
}

// TestArenaHitMissAccounting: the first combine misses (empty free
// list), and a released node turns the next combine into a hit, both
// counted in the arena's own shard. Both are blocks of one sibling.
func TestArenaHitMissAccounting(t *testing.T) {
	rec := exampleRecoded(t, 1)
	for _, kind := range recyclingKinds() {
		rep := New(kind)
		roots := rep.Roots(rec)
		a := NewArena(0)
		c1 := combineBlock(rep, a, roots[0], roots[1:2])[0]
		if a.Kernels.ArenaHits != 0 || a.Kernels.ArenaMisses != 1 {
			t.Fatalf("%v: after first combine hits=%d misses=%d, want 0/1", kind, a.Kernels.ArenaHits, a.Kernels.ArenaMisses)
		}
		a.Release(c1)
		c2 := combineBlock(rep, a, roots[0], roots[2:3])[0]
		if a.Kernels.ArenaHits != 1 || a.Kernels.ArenaMisses != 1 {
			t.Fatalf("%v: after recycled combine hits=%d misses=%d, want 1/1", kind, a.Kernels.ArenaHits, a.Kernels.ArenaMisses)
		}
		checkNode(t, kind.String()+" recycled", rec, []int{0, 2}, c2, 0)
	}
}

// TestArenaBitvecLengthMismatch: a recycled bitvector of the wrong
// universe length is dropped (a miss), never handed out.
func TestArenaBitvecLengthMismatch(t *testing.T) {
	rec := exampleRecoded(t, 1)
	rep := New(Bitvector)
	roots := rep.Roots(rec)
	a := NewArena(0)
	a.Release(&BitvectorNode{Bits: bitvec.New(3)})
	c := combineBlock(rep, a, roots[0], roots[1:2])[0]
	if a.Kernels.ArenaHits != 0 || a.Kernels.ArenaMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want the mismatched node dropped as a miss", a.Kernels.ArenaHits, a.Kernels.ArenaMisses)
	}
	checkNode(t, "after mismatched release", rec, []int{0, 1}, c, 0)
}

// TestArenaNilSafe: nil arenas and nil nodes are ignored everywhere,
// and CombineManyInto without an arena gives what it gives through one.
func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	a.Release(nil)
	NewArena(0).Release(nil)
	rec := exampleRecoded(t, 1)
	rep := New(Diffset)
	roots := rep.Roots(rec)
	for _, a := range []*Arena{nil, NewArena(0)} {
		for k, c := range combineBlock(rep, a, roots[0], roots[1:]) {
			checkNode(t, fmt.Sprintf("arena %v", a != nil), rec, []int{0, 1 + k}, c, 0)
		}
	}
}

// TestArenaFreeListCapped: releasing more nodes than arenaMaxFree
// drops the excess instead of growing without bound.
func TestArenaFreeListCapped(t *testing.T) {
	a := NewArena(0)
	for i := 0; i < arenaMaxFree+10; i++ {
		a.Release(&DiffsetNode{})
	}
	if len(a.diffsets) != arenaMaxFree {
		t.Fatalf("free list length %d, want the %d cap", len(a.diffsets), arenaMaxFree)
	}
}
