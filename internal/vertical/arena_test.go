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

// recyclingKinds are the kinds whose CombineInto recycles arena nodes:
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

// TestCombineIntoMatchesCombine: CombineInto through an arena is
// semantically identical to the allocating Combine — same support and
// same logical set — across representations, pairs, and a second
// level, with released nodes recycled in between.
func TestCombineIntoMatchesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rec := randomRecoded(t, rng, 8, 60)
	for _, kind := range AllKinds() {
		rep := New(kind)
		roots := rep.Roots(rec)
		a := NewArena(0)
		for i := 0; i < len(roots); i++ {
			for j := i + 1; j < len(roots); j++ {
				want := rep.Combine(roots[i], roots[j])
				got := rep.CombineInto(a, roots[i], roots[j])
				if got.Support() != want.Support() {
					t.Fatalf("%v {%d,%d}: support %d, want %d", kind, i, j, got.Support(), want.Support())
				}
				if kind != Hybrid && !samePayload(payload(got), payload(want)) {
					t.Fatalf("%v {%d,%d}: payload %v, want %v", kind, i, j, payload(got), payload(want))
				}
				// Recycle the child so later combines exercise arena hits.
				if kind != Hybrid {
					a.Release(got)
				}
			}
		}
	}
}

// TestCombineIntoNeverAliasesParents is the aliasing property of the
// arena doc comment: a CombineInto result must not share backing
// memory with its live parents. Scribbling over the child's full
// buffer capacity must leave both parents' payloads untouched, and
// vice versa — including children recycled through Release, whose
// buffers migrated through the free list.
func TestCombineIntoNeverAliasesParents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rec := randomRecoded(t, rng, 7, 50)
	for _, kind := range recyclingKinds() {
		rep := New(kind)
		a := NewArena(0)
		for round := 0; round < 3; round++ { // round > 0 uses recycled buffers
			var released []Node
			for i := 0; i < 6; i++ {
				for j := i + 1; j < 6; j++ {
					// Direction 1: scribbling the child leaves the parents
					// intact. Fresh roots per pair, since scribble destroys.
					roots := New(kind).Roots(rec)
					px, py := roots[i], roots[j]
					pxBefore, pyBefore := payload(px), payload(py)
					child := rep.CombineInto(a, px, py)
					scribble(child)
					if !samePayload(payload(px), pxBefore) {
						t.Fatalf("%v round %d {%d,%d}: mutating child corrupted px", kind, round, i, j)
					}
					if !samePayload(payload(py), pyBefore) {
						t.Fatalf("%v round %d {%d,%d}: mutating child corrupted py", kind, round, i, j)
					}
					released = append(released, child)

					// Direction 2: scribbling the parents leaves the child
					// intact.
					roots = New(kind).Roots(rec)
					px, py = roots[i], roots[j]
					child = rep.CombineInto(a, px, py)
					childBefore := payload(child)
					scribble(px)
					scribble(py)
					if !samePayload(payload(child), childBefore) {
						t.Fatalf("%v round %d {%d,%d}: mutating parents corrupted child", kind, round, i, j)
					}
					released = append(released, child)
				}
			}
			for _, n := range released {
				a.Release(n)
			}
		}
	}
}

// TestArenaHitMissAccounting: first combine misses (empty free list),
// and a released node turns the next combine into a hit, both counted
// in the arena's own shard.
func TestArenaHitMissAccounting(t *testing.T) {
	rec := exampleRecoded(t, 1)
	for _, kind := range recyclingKinds() {
		rep := New(kind)
		roots := New(kind).Roots(rec)
		a := NewArena(0)
		c1 := rep.CombineInto(a, roots[0], roots[1])
		if a.Kernels.ArenaHits != 0 || a.Kernels.ArenaMisses != 1 {
			t.Fatalf("%v: after first combine hits=%d misses=%d, want 0/1", kind, a.Kernels.ArenaHits, a.Kernels.ArenaMisses)
		}
		want := New(kind).Combine(roots[0], roots[2]).Support()
		a.Release(c1)
		c2 := rep.CombineInto(a, roots[0], roots[2])
		if a.Kernels.ArenaHits != 1 || a.Kernels.ArenaMisses != 1 {
			t.Fatalf("%v: after recycled combine hits=%d misses=%d, want 1/1", kind, a.Kernels.ArenaHits, a.Kernels.ArenaMisses)
		}
		if c2.Support() != want {
			t.Fatalf("%v: recycled node support = %d, want %d", kind, c2.Support(), want)
		}
	}
}

// TestArenaBitvecLengthMismatch: a recycled bitvector of the wrong
// universe length is dropped (a miss), never handed out.
func TestArenaBitvecLengthMismatch(t *testing.T) {
	rec := exampleRecoded(t, 1)
	rep := New(Bitvector)
	roots := New(Bitvector).Roots(rec)
	a := NewArena(0)
	a.Release(&BitvectorNode{Bits: bitvec.New(3)})
	c := rep.CombineInto(a, roots[0], roots[1])
	if a.Kernels.ArenaHits != 0 || a.Kernels.ArenaMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want the mismatched node dropped as a miss", a.Kernels.ArenaHits, a.Kernels.ArenaMisses)
	}
	want := New(Bitvector).Combine(roots[0], roots[1])
	if c.Support() != want.Support() || !samePayload(payload(c), payload(want)) {
		t.Fatal("combine after mismatched release is wrong")
	}
}

// TestArenaNilSafe: nil arenas and nil nodes are ignored everywhere,
// and CombineInto without an arena matches CombineInto through one.
func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	a.Release(nil)
	NewArena(0).Release(nil)
	rec := exampleRecoded(t, 1)
	rep := New(Diffset)
	roots := rep.Roots(rec)
	got := rep.CombineInto(nil, roots[0], roots[1])
	want := rep.CombineInto(NewArena(0), roots[0], roots[1])
	if got.Support() != want.Support() || !samePayload(payload(got), payload(want)) {
		t.Fatal("CombineInto(nil arena) diverges from CombineInto through an arena")
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

// The combine micro-benchmark pair: the allocating Combine against the
// arena-recycling CombineInto at steady state (child released every
// iteration, so after the first miss every node is a hit). allocs/op
// is the headline column — CombineInto must report fewer.

func benchCombineRoots(b *testing.B, kind Kind) (Representation, []Node) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	rec := randomRecoded(b, rng, 12, 4000)
	rep := New(kind)
	return rep, rep.Roots(rec)
}

func BenchmarkCombine(b *testing.B) {
	for _, kind := range recyclingKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			rep, roots := benchCombineRoots(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep.Combine(roots[i%4], roots[4+i%4])
			}
		})
	}
}

func BenchmarkCombineInto(b *testing.B) {
	for _, kind := range recyclingKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			rep, roots := benchCombineRoots(b, kind)
			a := NewArena(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Release(rep.CombineInto(a, roots[i%4], roots[4+i%4]))
			}
		})
	}
}
