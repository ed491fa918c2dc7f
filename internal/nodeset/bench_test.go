package nodeset

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/tidset"
)

// benchRecoded is a dense chess-like database: few items, high
// per-item density, heavy co-occurrence — the regime DiffNodesets
// target.
func benchRecoded(b *testing.B) *dataset.Recoded {
	b.Helper()
	return randomRecoded(b, 42, 3000, 40, 2)
}

func BenchmarkPPCBuild(b *testing.B) {
	rec := benchRecoded(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := Build(rec)
		if enc.Total == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// benchOperands returns the densest item's N-list, a sibling's, and
// two k-item DiffNodesets derived from them, plus the items' flat
// tidsets for the apples-to-apples comparison benchmarks below.
func benchOperands(b *testing.B) (nx, ny []L1Entry, dnA, dnB List, tx, ty tidset.Set) {
	b.Helper()
	rec := benchRecoded(b)
	enc := Build(rec)
	nx, ny = enc.NLists[0], enc.NLists[1]
	dnA, _ = DiffL1Into(nx, enc.NLists[2], nil, nil)
	dnB, _ = DiffL1Into(nx, enc.NLists[3], nil, nil)
	sets := rec.TidsetOf()
	return nx, ny, dnA, dnB, sets[0], sets[1]
}

// BenchmarkDiffL1Into: the 2-itemset DiffNodeset construction (the
// ancestor merge over two level-1 N-lists).
func BenchmarkDiffL1Into(b *testing.B) {
	nx, ny, _, _, _, _ := benchOperands(b)
	dst := make(List, 0, len(nx))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = DiffL1Into(nx, ny, dst, nil)
	}
}

// BenchmarkDiffInto: the k-itemset difference merge — the steady-state
// combine kernel of the representation.
func BenchmarkDiffInto(b *testing.B) {
	_, _, dnA, dnB, _, _ := benchOperands(b)
	dst := make(List, 0, len(dnB))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = DiffInto(dnB, dnA, dst, nil)
	}
}

// BenchmarkFlatIntersectIntoSameData: tidset.IntersectInto over the
// same two items' flat tidsets — the work the tidset representation
// does for the combine BenchmarkDiffL1Into performs on N-lists. The
// per-op gap is the co-occurrence compression.
func BenchmarkFlatIntersectIntoSameData(b *testing.B) {
	_, _, _, _, tx, ty := benchOperands(b)
	dst := make(tidset.Set, 0, len(tx))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = tx.IntersectInto(ty, dst, nil)
	}
}

// BenchmarkTiledIntersectIntoSameData: the tiled layout's kernel over
// the same operands, completing the flat vs tiled vs nodeset triangle
// of results/MICRO_nodeset.txt.
func BenchmarkTiledIntersectIntoSameData(b *testing.B) {
	_, _, _, _, tx, ty := benchOperands(b)
	a, c := tidset.FromSet(tx), tidset.FromSet(ty)
	dst := &tidset.Tiled{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.IntersectInto(c, dst, nil)
	}
}

func BenchmarkDiffL1ManyInto(b *testing.B) {
	rec := benchRecoded(b)
	enc := Build(rec)
	nx := enc.NLists[0]
	m := len(enc.NLists) - 1
	nys := make([][]L1Entry, m)
	dsts := make([]List, m)
	sums := make([]int, m)
	for i := 0; i < m; i++ {
		nys[i] = enc.NLists[i+1]
		dsts[i] = make(List, 0, len(nx))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffL1ManyInto(nx, nys, dsts, sums, nil)
	}
}

func BenchmarkDiffManyInto(b *testing.B) {
	rec := benchRecoded(b)
	enc := Build(rec)
	nx := enc.NLists[0]
	m := len(enc.NLists) - 2
	sub, _ := DiffL1Into(nx, enc.NLists[1], nil, nil)
	srcs := make([]List, m)
	dsts := make([]List, m)
	sums := make([]int, m)
	for i := 0; i < m; i++ {
		srcs[i], _ = DiffL1Into(nx, enc.NLists[i+2], nil, nil)
		dsts[i] = make(List, 0, len(srcs[i]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffManyInto(sub, srcs, dsts, sums, nil)
	}
}
