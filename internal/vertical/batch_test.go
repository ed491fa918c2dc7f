package vertical

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tidset"
)

// TestCombineManyIntoMatchesRows: for every kind, the batched combine
// gives the supports and payloads the recoded rows give, two levels
// deep, in blocks of many siblings and of one, with a nil arena and with
// a recycling arena whose buffers go through Release between blocks.
// The random roots put diffset roots on both sides (TestArenaBoundsCombine
// covers bounded arenas).
func TestCombineManyIntoMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sides := map[bool]int{}
	for trial := 0; trial < 3; trial++ {
		rec := randomRecoded(t, rng, 8, 60)
		for _, kind := range AllKinds() {
			rep := New(kind)
			roots := rep.Roots(rec)
			for _, r := range roots {
				if d, ok := r.(*DiffsetNode); ok {
					sides[d.tids]++
				}
			}
			for _, arena := range []*Arena{nil, NewArena(0)} {
				label := fmt.Sprintf("trial %d %v arena %v", trial, kind, arena != nil)
				for i := 0; i+1 < len(roots); i++ {
					block := combineBlock(rep, arena, roots[i], roots[i+1:])
					for k, child := range block {
						pair := []int{i, i + 1 + k}
						checkNode(t, label+" block", rec, pair, child, 0)
						one := combineBlock(rep, arena, roots[i], roots[i+1+k:i+2+k])[0]
						checkNode(t, label+" one sibling", rec, pair, one, 0)
						arena.Release(one) // nil-safe; recycles buffers for the next block
					}
					// Level 3: each extendable child against its later ones.
					items, freq := extendable(rec, i, block)
					for k := 0; k+1 < len(freq); k++ {
						for l, child := range combineBlock(rep, arena, freq[k], freq[k+1:]) {
							checkNode(t, label+" level 3", rec, []int{i, items[k], items[k+1+l]}, child, 0)
							arena.Release(child)
						}
					}
					for _, n := range block {
						arena.Release(n)
					}
				}
			}
		}
	}
	if sides[true] == 0 || sides[false] == 0 {
		t.Fatalf("diffset roots: %d tidset-side, %d complement-side; want both", sides[true], sides[false])
	}
}

// TestCombineManyIntoNeverAliases is the aliasing property of the arena
// doc comment: scribbling over any batched child's full buffer capacity
// must leave the shared parent, every sibling parent, and every sibling
// output untouched — and scribbling the parents must leave the children
// untouched. It runs a block of every later root and, as Eclat's level-2
// tasks do, blocks of one sibling; three rounds, so rounds past the
// first run on buffers recycled through the free list.
func TestCombineManyIntoNeverAliases(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rec := randomRecoded(t, rng, 7, 50)
	n := len(New(Tidset).Roots(rec))
	blocks := [][3]int{{0, 1, n}} // parent, sibling run [lo, hi)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			blocks = append(blocks, [3]int{i, j, j + 1})
		}
	}
	for _, kind := range recyclingKinds() {
		rep := New(kind)
		a := NewArena(0)
		for round := 0; round < 3; round++ {
			for _, b := range blocks {
				label := fmt.Sprintf("%v round %d block %v", kind, round, b)
				// Direction 1: scribbling child 0 leaves parents and sibling
				// outputs intact. Fresh roots per block, since scribble
				// destroys.
				roots := New(kind).Roots(rec)
				parentsBefore := make([][]tidset.TID, len(roots))
				for i, r := range roots {
					parentsBefore[i] = payload(r)
				}
				out := combineBlock(rep, a, roots[b[0]], roots[b[1]:b[2]])
				sibsBefore := make([][]tidset.TID, len(out))
				for j, n := range out {
					sibsBefore[j] = payload(n)
				}
				scribble(out[0])
				for i, r := range roots {
					if !samePayload(payload(r), parentsBefore[i]) {
						t.Fatalf("%s: scribbling a child corrupted parent %d", label, i)
					}
				}
				for j := 1; j < len(out); j++ {
					if !samePayload(payload(out[j]), sibsBefore[j]) {
						t.Fatalf("%s: scribbling child 0 corrupted sibling %d", label, j)
					}
				}
				for _, n := range out {
					a.Release(n)
				}

				// Direction 2: scribbling every parent leaves the children
				// intact.
				roots = New(kind).Roots(rec)
				out = combineBlock(rep, a, roots[b[0]], roots[b[1]:b[2]])
				childBefore := make([][]tidset.TID, len(out))
				for j, n := range out {
					childBefore[j] = payload(n)
				}
				for _, r := range roots {
					scribble(r)
				}
				for j, n := range out {
					if !samePayload(payload(n), childBefore[j]) {
						t.Fatalf("%s: scribbling parents corrupted child %d", label, j)
					}
				}
				for _, n := range out {
					a.Release(n)
				}
			}
		}
	}
}

// TestTiledLayoutMatchesFlat: the tiled layout is semantically the
// tidset representation — every batched combine over tiled nodes
// yields exactly the flat kernels' sets and supports, at level 2 and
// again one level down, with arena recycling in between.
// This is the vertical-level leg of the tiled×flat equivalence
// harness (the miner-level legs cross workers/depths/schedules).
func TestTiledLayoutMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 3; round++ {
		rec := randomRecoded(t, rng, 8, 80)
		flat, tiled := New(Tidset), New(Tiled)
		fRoots, tRoots := flat.Roots(rec), tiled.Roots(rec)
		if len(fRoots) != len(tRoots) {
			t.Fatal("root count disagrees across layouts")
		}
		a := NewArena(0)
		for i := range fRoots {
			if !samePayload(payload(fRoots[i]), payload(tRoots[i])) {
				t.Fatalf("root %d decodes differently across layouts", i)
			}
		}
		// Level 2 under both layouts, then level 3 under the first
		// child.
		px, pys := fRoots[0], fRoots[1:]
		tx, tys := tRoots[0], tRoots[1:]
		fOut := make([]Node, len(pys))
		tOut := make([]Node, len(tys))
		flat.CombineManyInto(px, pys, fOut, a)
		tiled.CombineManyInto(tx, tys, tOut, a)
		for j := range fOut {
			if fOut[j].Support() != tOut[j].Support() {
				t.Fatalf("round %d child %d: support %d (flat) vs %d (tiled)",
					round, j, fOut[j].Support(), tOut[j].Support())
			}
			if !samePayload(payload(fOut[j]), payload(tOut[j])) {
				t.Fatalf("round %d child %d: layouts decode different sets", round, j)
			}
		}
		f3 := combineBlock(flat, a, fOut[0], fOut[1:])
		t3 := combineBlock(tiled, a, tOut[0], tOut[1:])
		for j := range f3 {
			if f3[j].Support() != t3[j].Support() || !samePayload(payload(f3[j]), payload(t3[j])) {
				t.Fatalf("round %d level-3 child %d: layouts disagree", round, j)
			}
			a.Release(f3[j])
			a.Release(t3[j])
		}
		for j := range fOut {
			a.Release(fOut[j])
			a.Release(tOut[j])
		}
	}
}

// BenchmarkCombineManyInto times one parent against its whole sibling
// run at arena steady state: the per-block inner loop of the miners.
func BenchmarkCombineManyInto(b *testing.B) {
	for _, kind := range recyclingKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			rep := New(kind)
			roots := rep.Roots(randomRecoded(b, rng, 12, 4000))
			px, pys := roots[0], roots[1:]
			out := make([]Node, len(pys))
			a := NewArena(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep.CombineManyInto(px, pys, out, a)
				for _, n := range out {
					a.Release(n)
				}
			}
		})
	}
}
