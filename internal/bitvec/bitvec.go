// Package bitvec implements fixed-length packed bit vectors, the "vertical
// bitvector" representation of §II-B of the paper. Each itemset carries a
// bitmask over all transactions; bit t is set iff transaction t contains
// the itemset. Support counting is a bitwise AND followed by a population
// count.
//
// For dense data the bitvector is substantially smaller than the tidset
// and the AND+popcount kernel is branch-free, which is why the paper
// evaluates it as a third representation. Its fixed length is also its
// weakness: candidates deep in the search keep paying for the full
// transaction universe even when their support is tiny — the memory
// pressure behind Apriori-bitvector's scalability collapse (§V-A).
//
// The Into kernels, AndManyInto and Count charge their word operations to
// the kcount shard they are given (nil counts nothing); the allocating
// And and AndNot count nothing.
package bitvec

import (
	"math/bits"

	"repro/internal/kcount"
	"repro/internal/tidset"
)

const wordBits = 64

// Vector is a packed bit vector over a fixed universe of N transactions.
// The universe size is carried by the vector's bit length; all binary
// operations require equal lengths.
type Vector struct {
	words []uint64
	n     int // number of valid bits
}

// New returns an all-zero vector over n transactions.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromTIDs builds a vector over n transactions with the given tids set.
func FromTIDs(n int, tids tidset.Set) *Vector {
	v := New(n)
	for _, t := range tids {
		v.Set(t)
	}
	return v
}

// Len returns the universe size (number of transactions).
func (v *Vector) Len() int { return v.n }

// Words returns the memory footprint in 8-byte words, for the cost
// model's traffic accounting.
func (v *Vector) Words() int { return len(v.words) }

// Set sets bit t. It panics if t is out of range, since that means the
// caller built the vector over the wrong universe.
func (v *Vector) Set(t tidset.TID) {
	if int(t) >= v.n {
		panic("bitvec: Set out of range")
	}
	v.words[t/wordBits] |= 1 << (t % wordBits)
}

// Clear clears bit t.
func (v *Vector) Clear(t tidset.TID) {
	if int(t) >= v.n {
		panic("bitvec: Clear out of range")
	}
	v.words[t/wordBits] &^= 1 << (t % wordBits)
}

// Test reports whether bit t is set.
func (v *Vector) Test(t tidset.TID) bool {
	if int(t) >= v.n {
		return false
	}
	return v.words[t/wordBits]&(1<<(t%wordBits)) != 0
}

// Count returns the number of set bits — the support of the itemset the
// vector represents — charging the popcounted words to st (nil counts
// nothing).
func (v *Vector) Count(st *kcount.Stats) int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	st.AddWords(0, len(v.words))
	return c
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return &Vector{words: w, n: v.n}
}

// Equal reports whether v and u have the same length and bits.
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// And returns v AND u as a new vector.
func (v *Vector) And(u *Vector) *Vector {
	out := New(v.n)
	out.AndInto(v, u, nil)
	return out
}

// AndInto stores a AND b into v (which must have the same length) and
// returns v, allowing per-worker scratch reuse in the mining hot loop.
// The ANDed words are charged to st (nil counts nothing).
func (v *Vector) AndInto(a, b *Vector, st *kcount.Stats) *Vector {
	checkLen(a, b)
	checkLen(v, a)
	for i := range v.words {
		v.words[i] = a.words[i] & b.words[i]
	}
	st.AddWords(len(v.words), 0)
	return v
}

// andTileWords is the strip width of AndManyInto in 64-bit words:
// 512 words = 4 KiB of parent payload per tile, small enough that a
// tile stays cache-resident while it is ANDed against every child of a
// prefix block.
const andTileWords = 512

// stripSparseMax is the sparse/dense switch of the strip classifier: a
// parent strip with at most this many nonzero words takes the sparse
// path, which ANDs only those word positions for every child (the
// positions fit a stack array, so classification allocates nothing).
// Deep in the search the resident parent's support collapses while its
// vector keeps paying for the full universe — exactly the regime where
// most strips are all-zero or nearly so.
const stripSparseMax = 32

// AndManyInto stores px AND pys[j] into outs[j] and the popcount of
// that result into sups[j], for every j. All vectors must share px's
// length; len(outs) and len(sups) must equal len(pys). The loop is
// strip-mined over word tiles: a tile of the shared parent is loaded
// once and ANDed+popcounted against the matching tile of every child
// before eviction, so the parent streams from memory once per block
// instead of once per child — and the popcount is fused into the same
// pass, where the pairwise AndInto+Count path takes two.
//
// Each parent strip is classified before the children stream, the same
// sparse/dense tile dispatch as the tiled tidset layout: an all-zero
// strip just clears every child's strip (tiles_skipped), a strip with
// ≤ stripSparseMax nonzero words ANDs only those positions
// (tiles_sparse), and only genuinely dense strips stream word-for-word
// (tiles_dense). The words_anded counter records the words actually
// touched, so the saving is visible in the evidence trail.
func AndManyInto(px *Vector, pys, outs []*Vector, sups []int, st *kcount.Stats) {
	m := len(pys)
	if m == 0 {
		return
	}
	for j := range pys {
		checkLen(px, pys[j])
		checkLen(px, outs[j])
		sups[j] = 0
	}
	nw := len(px.words)
	skipped, sparse, dense := 0, 0, 0
	wordsANDed := 0
	var nz [stripSparseMax]int32
	for lo := 0; lo < nw; lo += andTileWords {
		hi := min(lo+andTileWords, nw)
		pw := px.words[lo:hi]

		// Classify the parent strip: positions of its nonzero words,
		// bailing to the dense path past stripSparseMax.
		nnz := 0
		for k, p := range pw {
			if p != 0 {
				if nnz == stripSparseMax {
					nnz = -1
					break
				}
				nz[nnz] = int32(k)
				nnz++
			}
		}
		switch {
		case nnz == 0:
			// Nothing of the parent survives here: every child's out
			// strip is zero, no AND, no popcount. (Out strips must
			// still be written — recycled vectors carry stale bits.)
			skipped++
			for j := range pys {
				clear(outs[j].words[lo:hi])
			}
		case nnz > 0:
			sparse++
			wordsANDed += nnz * m
			for j := range pys {
				yw := pys[j].words[lo:hi]
				ow := outs[j].words[lo:hi]
				clear(ow)
				c := 0
				for _, k := range nz[:nnz] {
					w := pw[k] & yw[k]
					ow[k] = w
					c += bits.OnesCount64(w)
				}
				sups[j] += c
			}
		default:
			dense++
			wordsANDed += len(pw) * m
			for j := range pys {
				yw := pys[j].words[lo:hi]
				ow := outs[j].words[lo:hi]
				c := 0
				for k, p := range pw {
					w := p & yw[k]
					ow[k] = w
					c += bits.OnesCount64(w)
				}
				sups[j] += c
			}
		}
	}
	st.AddWords(wordsANDed, wordsANDed)
	st.AddStrips(skipped, sparse, dense)
	st.AddBatch(m, nw)
}

// AndNot returns v AND NOT u as a new vector (set difference).
func (v *Vector) AndNot(u *Vector) *Vector {
	out := New(v.n)
	out.AndNotInto(v, u, nil)
	return out
}

// AndNotInto stores a AND NOT b into v and returns v.
func (v *Vector) AndNotInto(a, b *Vector, st *kcount.Stats) *Vector {
	checkLen(a, b)
	checkLen(v, a)
	for i := range v.words {
		v.words[i] = a.words[i] &^ b.words[i]
	}
	st.AddWords(len(v.words), 0)
	return v
}

// Or returns v OR u as a new vector.
func (v *Vector) Or(u *Vector) *Vector {
	checkLen(v, u)
	out := New(v.n)
	for i := range out.words {
		out.words[i] = v.words[i] | u.words[i]
	}
	return out
}

// Not returns the complement of v within its universe. Bits beyond Len()
// in the last word stay zero, preserving Count correctness.
func (v *Vector) Not() *Vector {
	out := New(v.n)
	for i := range out.words {
		out.words[i] = ^v.words[i]
	}
	out.maskTail()
	return out
}

// maskTail zeroes the padding bits of the final word.
func (v *Vector) maskTail() {
	if r := v.n % wordBits; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << r) - 1
	}
}

// TIDs returns the set bits as a tidset, ascending.
func (v *Vector) TIDs() tidset.Set {
	out := make(tidset.Set, 0, v.Count(nil))
	for wi, w := range v.words {
		base := tidset.TID(wi * wordBits)
		for w != 0 {
			out = append(out, base+tidset.TID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// Range calls f for each set bit in ascending order; f returning false
// stops the iteration early.
func (v *Vector) Range(f func(tidset.TID) bool) {
	for wi, w := range v.words {
		base := tidset.TID(wi * wordBits)
		for w != 0 {
			if !f(base + tidset.TID(bits.TrailingZeros64(w))) {
				return
			}
			w &= w - 1
		}
	}
}

func checkLen(a, b *Vector) {
	if a.n != b.n {
		panic("bitvec: length mismatch")
	}
}
