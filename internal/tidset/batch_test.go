package tidset

import (
	"fmt"
	"math"
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
		IntersectManyInto(px, pys, dsts, 0, nil)
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
		DiffManyInto(sub, srcs, dsts, math.MaxInt, nil)
		for i := range srcs {
			if want := srcs[i].Diff(sub); !dsts[i].Equal(want) {
				t.Fatalf("trial %d child %d: got %v, want %v (sub=%v src=%v)",
					trial, i, dsts[i], want, sub, srcs[i])
			}
		}
	}
}

// checkAtLeast fails unless got is what a kernel bounded by need may
// return for the exact intersection want: want itself when
// |want| ≥ need, else a prefix of want shorter than need.
func checkAtLeast(t *testing.T, label string, got, want Set, need int) {
	t.Helper()
	switch {
	case len(want) >= need && !got.Equal(want):
		t.Fatalf("%s need %d: got %v, want %v", label, need, got, want)
	case len(want) < need && (len(got) >= need || !got.Equal(want[:len(got)])):
		t.Fatalf("%s need %d: got %v, want a prefix of %v shorter than %d", label, need, got, want, need)
	}
}

// checkAtMost is checkAtLeast for a difference bounded by limit (a
// negative limit counts as 0): want itself when |want| ≤ limit, else a
// prefix of want longer than limit.
func checkAtMost(t *testing.T, label string, got, want Set, limit int) {
	t.Helper()
	limit = max(limit, 0)
	switch {
	case len(want) <= limit && !got.Equal(want):
		t.Fatalf("%s limit %d: got %v, want %v", label, limit, got, want)
	case len(want) > limit && (len(got) <= limit || len(got) > len(want) || !got.Equal(want[:len(got)])):
		t.Fatalf("%s limit %d: got %v, want a prefix of %v longer than %d", label, limit, got, want, limit)
	}
}

// TestBoundedKernelsAgree: the support-bounded kernels, pairwise and
// batched, equal the exact ones whenever the exact result meets the
// bound, and otherwise report a result on the wrong side of it — for
// every bound from 0 to len+1 and operands dense and interleaved,
// sparse, and skewed enough to gallop.
func TestBoundedKernelsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	regimes := []struct {
		name string
		pair func() (Set, Set)
	}{
		{"dense", func() (Set, Set) { return sparseSet(r, 60, 90), sparseSet(r, 60, 90) }},
		{"sparse", func() (Set, Set) { return sparseSet(r, 40, 2000), sparseSet(r, 40, 2000) }},
		{"gallop", func() (Set, Set) { return sparseSet(r, 6, 600), sparseSet(r, 300, 600) }},
	}
	for _, rg := range regimes {
		for trial := 0; trial < 40; trial++ {
			a, b := rg.pair()
			label := fmt.Sprintf("%s trial %d", rg.name, trial)
			inter, diffAB, diffBA := a.Intersect(b), a.Diff(b), b.Diff(a)
			for need := 0; need <= min(len(a), len(b))+1; need++ {
				checkAtLeast(t, label+" a∩b", a.IntersectAtLeastInto(b, need, nil, nil), inter, need)
				checkAtLeast(t, label+" b∩a", b.IntersectAtLeastInto(a, need, make(Set, 0, 1), nil), inter, need)
				dsts := make([]Set, 2)
				IntersectManyInto(a, []Set{b, a}, dsts, need, nil)
				checkAtLeast(t, label+" many a∩b", dsts[0], inter, need)
				checkAtLeast(t, label+" many a∩a", dsts[1], a, need)
			}
			for limit := -1; limit <= max(len(a), len(b))+1; limit++ {
				checkAtMost(t, label+" a−b", a.DiffAtMostInto(b, limit, nil, nil), diffAB, limit)
				checkAtMost(t, label+" b−a", b.DiffAtMostInto(a, limit, make(Set, 0, 1), nil), diffBA, limit)
				dsts := make([]Set, 2)
				DiffManyInto(a, []Set{b, a}, dsts, limit, nil)
				checkAtMost(t, label+" many b−a", dsts[0], diffBA, limit)
				checkAtMost(t, label+" many a−a", dsts[1], nil, limit)
			}
		}
	}
}

// byteSet decodes fuzz input into a set: each byte is one candidate
// tid, New dedups and sorts.
func byteSet(b []byte) Set {
	tids := make([]TID, len(b))
	for i, x := range b {
		tids[i] = TID(x)
	}
	return New(tids...)
}

// The fuzz targets run the batched kernels under a fuzzed bound:
// need for the intersection, limit for the difference (0 bounds
// nothing in the first, everything in the second).

func FuzzIntersectManyInto(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, []byte{9}, uint8(0))
	f.Add([]byte{}, []byte{0, 255}, []byte{7, 7, 7}, uint8(2))
	f.Fuzz(func(t *testing.T, a, b, c []byte, need uint8) {
		px := byteSet(a)
		pys := []Set{byteSet(b), byteSet(c), nil}
		dsts := make([]Set, len(pys))
		IntersectManyInto(px, pys, dsts, int(need), nil)
		for i, py := range pys {
			checkAtLeast(t, fmt.Sprintf("child %d", i), dsts[i], px.Intersect(py), int(need))
		}
	})
}

func FuzzDiffManyInto(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, []byte{9}, uint8(255))
	f.Add([]byte{200, 1}, []byte{}, []byte{1, 2, 200}, uint8(1))
	f.Fuzz(func(t *testing.T, a, b, c []byte, limit uint8) {
		sub := byteSet(a)
		srcs := []Set{byteSet(b), byteSet(c), nil}
		dsts := make([]Set, len(srcs))
		DiffManyInto(sub, srcs, dsts, int(limit), nil)
		for i, src := range srcs {
			checkAtMost(t, fmt.Sprintf("child %d", i), dsts[i], src.Diff(sub), int(limit))
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
		IntersectManyInto(px, pys, dsts, 0, nil)
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
		DiffManyInto(sub, srcs, dsts, math.MaxInt, nil)
	}
}
