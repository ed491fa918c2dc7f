package tidset

import (
	"math/rand"
	"testing"
)

// sparseSet draws a set with elements spread over a wide range, so the
// batched kernels' bounds-trimming actually cuts tails off.
func sparseSet(r *rand.Rand, n, span int) Set {
	tids := make([]TID, 0, n)
	for i := 0; i < n; i++ {
		tids = append(tids, TID(r.Intn(span)))
	}
	return New(tids...)
}

// TestIntersectManyIntoMatchesPairwise: the batched kernel is m
// pairwise IntersectInto calls, on random blocks of varied density and
// overlap, including empty parents, empty siblings, and nil dst
// buffers.
func TestIntersectManyIntoMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		px := sparseSet(r, r.Intn(80), 1+r.Intn(400))
		m := r.Intn(7)
		pys := make([]Set, m)
		dsts := make([]Set, m)
		for i := range pys {
			pys[i] = sparseSet(r, r.Intn(80), 1+r.Intn(400))
			if r.Intn(3) == 0 {
				dsts[i] = make(Set, 0, 8) // pre-owned buffer, like an arena node
			}
		}
		IntersectManyInto(px, pys, dsts, nil)
		for i := range pys {
			if want := px.Intersect(pys[i]); !dsts[i].Equal(want) {
				t.Fatalf("trial %d child %d: got %v, want %v (px=%v py=%v)",
					trial, i, dsts[i], want, px, pys[i])
			}
		}
	}
}

// TestDiffManyIntoMatchesPairwise: batched subtraction of a shared
// subtrahend equals per-sibling DiffInto.
func TestDiffManyIntoMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		sub := sparseSet(r, r.Intn(80), 1+r.Intn(400))
		m := r.Intn(7)
		srcs := make([]Set, m)
		dsts := make([]Set, m)
		for i := range srcs {
			srcs[i] = sparseSet(r, r.Intn(80), 1+r.Intn(400))
		}
		DiffManyInto(sub, srcs, dsts, nil)
		for i := range srcs {
			if want := srcs[i].Diff(sub); !dsts[i].Equal(want) {
				t.Fatalf("trial %d child %d: got %v, want %v (sub=%v src=%v)",
					trial, i, dsts[i], want, sub, srcs[i])
			}
		}
	}
}

// byteSets decodes fuzz input into a set: each byte is one candidate
// tid, New dedups and sorts.
func byteSet(b []byte) Set {
	tids := make([]TID, len(b))
	for i, x := range b {
		tids[i] = TID(x)
	}
	return New(tids...)
}

func FuzzIntersectManyInto(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, []byte{9})
	f.Add([]byte{}, []byte{0, 255}, []byte{7, 7, 7})
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		px := byteSet(a)
		pys := []Set{byteSet(b), byteSet(c), nil}
		dsts := make([]Set, len(pys))
		IntersectManyInto(px, pys, dsts, nil)
		for i, py := range pys {
			if want := px.Intersect(py); !dsts[i].Equal(want) {
				t.Fatalf("child %d: got %v, want %v", i, dsts[i], want)
			}
		}
	})
}

func FuzzDiffManyInto(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, []byte{9})
	f.Add([]byte{200, 1}, []byte{}, []byte{1, 2, 200})
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		sub := byteSet(a)
		srcs := []Set{byteSet(b), byteSet(c), nil}
		dsts := make([]Set, len(srcs))
		DiffManyInto(sub, srcs, dsts, nil)
		for i, src := range srcs {
			if want := src.Diff(sub); !dsts[i].Equal(want) {
				t.Fatalf("child %d: got %v, want %v", i, dsts[i], want)
			}
		}
	})
}

// The batched-vs-pairwise intersection micro-benchmark pair: one
// parent against a block of 16 siblings. The Many form reads the
// parent's bounds once and trims each sibling before merging.

func benchBlock(b *testing.B) (Set, []Set, []Set) {
	b.Helper()
	r := rand.New(rand.NewSource(9))
	px := sparseSet(r, 4000, 1<<16)
	pys := make([]Set, 16)
	dsts := make([]Set, 16)
	for i := range pys {
		pys[i] = sparseSet(r, 4000, 1<<16)
		dsts[i] = make(Set, 0, 4000)
	}
	return px, pys, dsts
}

func BenchmarkIntersectManyInto(b *testing.B) {
	px, pys, dsts := benchBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectManyInto(px, pys, dsts, nil)
	}
}

func BenchmarkIntersectPairwiseBlock(b *testing.B) {
	px, pys, dsts := benchBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pys {
			dsts[j] = px.IntersectInto(pys[j], dsts[j], nil)
		}
	}
}

func BenchmarkDiffManyInto(b *testing.B) {
	sub, srcs, dsts := benchBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffManyInto(sub, srcs, dsts, nil)
	}
}
