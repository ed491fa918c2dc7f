package bitvec

import (
	"math/rand"
	"testing"
)

// TestAndManyIntoMatchesPairwise: the strip-mined batch kernel equals
// per-child AndInto+Count across universe sizes that exercise zero,
// one, and multiple tiles, with and without a ragged final word.
func TestAndManyIntoMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	sizes := []int{0, 1, 63, 64, 65, 1000, andTileWords * 64, andTileWords*64 + 7, 3*andTileWords*64 + 130}
	for _, n := range sizes {
		px := FromTIDs(n, randomTIDs(r, n))
		m := 1 + r.Intn(5)
		pys := make([]*Vector, m)
		outs := make([]*Vector, m)
		sups := make([]int, m)
		for j := range pys {
			pys[j] = FromTIDs(n, randomTIDs(r, n))
			outs[j] = New(n)
			sups[j] = -1 // must be overwritten, not accumulated into
		}
		AndManyInto(px, pys, outs, sups, nil)
		for j := range pys {
			want := px.And(pys[j])
			if !outs[j].Equal(want) {
				t.Fatalf("n=%d child %d: AND payload mismatch", n, j)
			}
			if sups[j] != want.Count(nil) {
				t.Fatalf("n=%d child %d: sup %d, want %d", n, j, sups[j], want.Count(nil))
			}
		}
	}
}

// TestAndManyIntoEmptyBlock: a zero-length block is a no-op.
func TestAndManyIntoEmptyBlock(t *testing.T) {
	px := New(100)
	AndManyInto(px, nil, nil, nil, nil)
}

// TestAndManyIntoLengthMismatch: the batch kernel keeps AndInto's
// universe-length panic.
func TestAndManyIntoLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	AndManyInto(New(100), []*Vector{New(99)}, []*Vector{New(100)}, []int{0}, nil)
}

// The batched-vs-pairwise AND micro-benchmark pair over a block of 16
// children. The Many form streams each parent tile once per block and
// fuses the popcount; the pairwise baseline re-reads the parent per
// child and takes a second pass for Count.

func benchVecBlock(b *testing.B) (*Vector, []*Vector, []*Vector, []int) {
	b.Helper()
	r := rand.New(rand.NewSource(5))
	n := 1 << 16
	px := FromTIDs(n, randomTIDs(r, n))
	pys := make([]*Vector, 16)
	outs := make([]*Vector, 16)
	for j := range pys {
		pys[j] = FromTIDs(n, randomTIDs(r, n))
		outs[j] = New(n)
	}
	return px, pys, outs, make([]int, 16)
}

func BenchmarkAndManyInto(b *testing.B) {
	px, pys, outs, sups := benchVecBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndManyInto(px, pys, outs, sups, nil)
	}
}

func BenchmarkAndPairwiseBlock(b *testing.B) {
	px, pys, outs, sups := benchVecBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pys {
			outs[j].AndInto(px, pys[j], nil)
			sups[j] = outs[j].Count(nil)
		}
	}
}
