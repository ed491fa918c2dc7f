// Package tidset implements sorted transaction-id sets, the "vertical
// tidset" representation of §II-B of the paper. A tidset t(X) lists, in
// ascending order, the ids of every transaction containing itemset X.
// Support counting is intersection: t(PXY) = t(PX) ∩ t(PY), and
// support(PXY) = |t(PXY)|.
//
// The same machinery provides set difference, which is the kernel of the
// diffset representation: d(PXY) = d(PY) − d(PX) (Zaki & Gouda).
//
// All operations come in two forms: an allocating form and an "Into" form
// that appends into a caller-owned buffer, so the miners' hot loops can
// recycle per-worker scratch space without touching the allocator. The
// Into and Many kernels charge their steps to the kcount shard they are
// given (nil counts nothing); the allocating forms are conveniences for
// callers outside a mine and count nothing.
//
// The two merge loops behind intersection and difference are
// branch-free and support-bounded: each step stores a candidate
// unconditionally and advances its cursors by 0/1 amounts computed
// arithmetically, and the bounded forms (IntersectAtLeastInto,
// DiffAtMostInto, and the Many kernels' bound argument) stop as soon as
// the result can no longer reach the caller's bound. The exact forms
// are the same loops with a bound that never fires.
package tidset

import (
	"slices"

	"repro/internal/kcount"
)

// TID is a transaction identifier: the 0-based position of a transaction
// in its database.
type TID = uint32

// Set is a sorted, duplicate-free list of transaction ids.
type Set []TID

// New returns a sorted, deduplicated set built from tids.
func New(tids ...TID) Set {
	if len(tids) == 0 {
		return Set{}
	}
	s := make(Set, len(tids))
	copy(s, tids)
	slices.Sort(s)
	w := 1
	for r := 1; r < len(s); r++ {
		if s[r] != s[w-1] {
			s[w] = s[r]
			w++
		}
	}
	return s[:w]
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Support returns the cardinality |s|. Named for its role in mining:
// the support of an itemset is the size of its tidset.
func (s Set) Support() int { return len(s) }

// Contains reports whether tid is a member of s.
func (s Set) Contains(tid TID) bool {
	_, ok := slices.BinarySearch(s, tid)
	return ok
}

// IsSorted reports whether s is strictly ascending (the package invariant).
func (s Set) IsSorted() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Equal reports whether s and t are identical.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Intersect returns s ∩ t as a new set.
func (s Set) Intersect(t Set) Set {
	return s.IntersectInto(t, make(Set, 0, min(len(s), len(t))), nil)
}

// gallopRatio is the length disparity len(long)/len(short) at which
// intersection switches from a linear merge to exponential search over
// the longer operand. results/CALIBRATE_gallop.txt records the sweep
// behind it: merge wins up to ratio 4, gallop from 8 up.
const gallopRatio = 8

// IntersectInto appends s ∩ t to dst[:0] and returns it. dst may be nil.
// When one operand is much shorter than the other it switches to a
// galloping (exponential search) strategy, which matters for skewed dense
// data where one parent's tidset is tiny.
func (s Set) IntersectInto(t Set, dst Set, st *kcount.Stats) Set {
	return s.IntersectAtLeastInto(t, 0, dst, st)
}

// IntersectAtLeastInto is IntersectInto bounded by need, the smallest
// intersection the caller can use (a child's minimum support). It
// returns s ∩ t exactly whenever |s ∩ t| ≥ need; otherwise it stops as
// soon as the merge proves |s ∩ t| < need and returns a prefix of
// s ∩ t shorter than need — at once, without merging, when the shorter
// operand is itself shorter than need. need ≤ 0 is exact.
func (s Set) IntersectAtLeastInto(t Set, need int, dst Set, st *kcount.Stats) Set {
	// Ensure s is the shorter operand.
	if len(s) > len(t) {
		s, t = t, s
	}
	if len(s) == 0 || len(s) < need {
		return dst[:0]
	}
	if len(t)/len(s) >= gallopRatio {
		return gallopIntersect(s, t, dst[:0], need, st)
	}
	if cap(dst) < len(s) {
		dst = make(Set, len(s))
	}
	return mergeIntersect(s, t, dst[:len(s)], need, st)
}

// mergeIntersect is the linear two-pointer intersection; s must be the
// shorter operand and non-empty, and len(dst) ≥ len(s). The inner loop
// has no data-dependent branch: every step stores s[i] at dst[k] and
// advances i when s[i] ≤ t[j], j when s[i] ≥ t[j], and k when both
// hold, with le and ge read off the sign bit of the difference.
//
// The bound counts misses: once more than len(s)−need elements of s
// (or len(t)−need of t) have found no partner, fewer than need can
// remain. A step raises i−k or j−k by at most one, so the inner loop
// runs as many steps as can reach, but not pass, the first of those
// limits and either operand's end; the outer loop stops at the step
// that crosses one.
func mergeIntersect(s, t Set, dst Set, need int, st *kcount.Stats) Set {
	slackS, slackT := len(s)-need, len(t)-need
	i, j, k := 0, 0, 0
	for {
		n := min(len(s)-i, len(t)-j, slackS-(i-k)+1, slackT-(j-k)+1)
		if n <= 0 {
			break
		}
		for ; n > 0; n-- {
			a, b := s[i], t[j]
			dst[k] = a
			d := int64(a) - int64(b)
			le := int(uint64(d-1) >> 63)  // a <= b
			ge := int(uint64(-d-1) >> 63) // a >= b
			k += le & ge
			i += le
			j += ge
		}
	}
	st.AddMergeSteps(i + j)
	return dst[:k]
}

// gallopIntersect intersects short s against long t by exponential +
// binary search, stopping once more than len(s)−need elements of s have
// missed. The kernel counter charges one gallop pick per call and one
// probe sequence per short-side element actually processed; the counts
// come from the loop index, so counting pays nothing inside the loop.
func gallopIntersect(s, t Set, dst Set, need int, st *kcount.Stats) Set {
	slack := len(s) - need
	lo := 0
	si := 0
	for ; si < len(s) && si-len(dst) <= slack; si++ {
		x := s[si]
		// Exponential probe from lo.
		hi, step := lo, 1
		for hi < len(t) && t[hi] < x {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		// Binary search in [lo, hi]: t[hi] ≥ x when hi is in range.
		k, found := slices.BinarySearch(t[lo:min(hi+1, len(t))], x)
		k += lo
		if found {
			dst = append(dst, x)
			k++
		}
		lo = k
		if lo >= len(t) {
			si++
			break
		}
	}
	st.AddGallop(si, si)
	return dst
}

// IntersectManyInto intersects one parent set px against every sibling
// in pys, appending each result into dsts[i][:0] (entries may be nil)
// and storing the grown buffer back into dsts[i]. It is semantically
// identical to len(pys) IntersectAtLeastInto calls with bound need
// (need ≤ 0 is exact), but the parent is amortized across the block:
// px's bounds are computed once and each sibling is first trimmed to
// the window [px[0], px[last]] — the only region that can intersect —
// so sibling tails outside the parent's range are skipped without
// entering the merge loop. Charges one batch_calls tick and
// (m−1)×len(px) parent_words_saved.
func IntersectManyInto(px Set, pys []Set, dsts []Set, need int, st *kcount.Stats) {
	m := len(pys)
	if m == 0 {
		return
	}
	if len(px) == 0 {
		for i := range dsts[:m] {
			dsts[i] = dsts[i][:0]
		}
		st.AddBatch(m, 0)
		return
	}
	lo, hi := px[0], px[len(px)-1]
	for i, py := range pys {
		dsts[i] = px.IntersectAtLeastInto(trim(py, lo, hi), need, dsts[i], st)
	}
	st.AddBatch(m, len(px))
}

// DiffManyInto appends srcs[i] \ sub to dsts[i][:0] for every sibling,
// each bounded by limit as in DiffAtMostInto (limit ≥ len(srcs[i]) is
// exact). This is the diffset combine d(PXY) = d(PY) − d(PX) batched
// over a prefix block, where limit = sup(PX) − minSup: the shared
// subtrahend sub = d(PX) is trimmed per sibling to the window that can
// actually cancel elements, and its re-streaming is charged to the
// kernel counters once per block instead of once per sibling.
func DiffManyInto(sub Set, srcs []Set, dsts []Set, limit int, st *kcount.Stats) {
	m := len(srcs)
	if m == 0 {
		return
	}
	for i, src := range srcs {
		t := sub
		if len(src) > 0 && len(t) > 0 {
			t = trim(t, src[0], src[len(src)-1])
		}
		dsts[i] = src.DiffAtMostInto(t, limit, dsts[i], st)
	}
	st.AddBatch(m, len(sub))
}

// trim returns the sub-slice of s inside the closed window [lo, hi],
// located by binary search. Elements outside the window cannot survive
// an intersection with — or cancel an element of — a set bounded by
// [lo, hi].
func trim(s Set, lo, hi TID) Set {
	a, _ := slices.BinarySearch(s, lo)
	b, _ := slices.BinarySearchFunc(s[a:], hi, func(e, limit TID) int {
		if e <= limit {
			return -1
		}
		return 1
	})
	return s[a : a+b]
}

// Diff returns s \ t as a new set.
func (s Set) Diff(t Set) Set {
	return s.DiffInto(t, make(Set, 0, len(s)), nil)
}

// DiffInto appends s \ t to dst[:0] and returns it.
func (s Set) DiffInto(t Set, dst Set, st *kcount.Stats) Set {
	return s.DiffAtMostInto(t, len(s), dst, st)
}

// DiffAtMostInto is DiffInto bounded by limit, the longest difference
// the caller can use (a diffset child's sup(PX) − minSup). It returns
// s \ t exactly whenever |s \ t| ≤ limit; otherwise it stops once it
// has kept limit+1 elements and returns that prefix of s \ t, longer
// than limit. A negative limit counts as 0.
//
// The merge's inner loop has no data-dependent branch: every step
// stores s[i] at dst[k], advances i when s[i] ≤ t[j] and j when
// s[i] ≥ t[j], and keeps the store (k++) when s[i] < t[j]. A step
// raises k by at most one, so the inner loop runs as many steps as can
// reach, but not pass, limit+1 kept elements and either operand's end.
func (s Set) DiffAtMostInto(t Set, limit int, dst Set, st *kcount.Stats) Set {
	limit = max(0, min(limit, len(s)))
	if cap(dst) < len(s) {
		dst = make(Set, len(s))
	}
	dst = dst[:len(s)]
	i, j, k := 0, 0, 0
	for {
		n := min(len(s)-i, len(t)-j, limit+1-k)
		if n <= 0 {
			break
		}
		for ; n > 0; n-- {
			a, b := s[i], t[j]
			dst[k] = a
			d := int64(a) - int64(b)
			le := int(uint64(d-1) >> 63)  // a <= b
			ge := int(uint64(-d-1) >> 63) // a >= b
			k += 1 - ge
			i += le
			j += ge
		}
	}
	st.AddMergeSteps(i + j)
	// t is exhausted (or the bound fired): the rest of s survives, up
	// to the first element past the bound.
	if n := min(len(s)-i, limit+1-k); n > 0 {
		k += copy(dst[k:], s[i:i+n])
	}
	return dst[:k]
}

// Union returns s ∪ t as a new set.
func (s Set) Union(t Set) Set {
	dst := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		a, b := s[i], t[j]
		switch {
		case a < b:
			dst = append(dst, a)
			i++
		case a > b:
			dst = append(dst, b)
			j++
		default:
			dst = append(dst, a)
			i++
			j++
		}
	}
	dst = append(dst, s[i:]...)
	return append(dst, t[j:]...)
}

// Complement returns {0..n-1} \ s: the tids absent from s in a universe of
// n transactions. A dense item's 1-itemset diffset is the complement of
// its tidset, d(x) = D − t(x) (paper Figure 2(a)); a sparse item's root
// keeps t(x) itself.
func (s Set) Complement(n int) Set {
	dst := make(Set, 0, n-len(s))
	j := 0
	for tid := TID(0); tid < TID(n); tid++ {
		if j < len(s) && s[j] == tid {
			j++
			continue
		}
		dst = append(dst, tid)
	}
	return dst
}

// UnionComplementInto appends {0..n-1} \ (s ∪ t) to dst[:0] and returns
// it: the TIDs of a universe of n transactions that neither set holds.
// It is the diffset combine of a complement root x with a tidset root y,
// d(xy) = t(x) − t(y) = D − (d(x) ∪ t(y)).
func (s Set) UnionComplementInto(t Set, n int, dst Set, st *kcount.Stats) Set {
	dst = dst[:0]
	i, j := 0, 0
	for tid := TID(0); tid < TID(n); tid++ {
		switch {
		case i < len(s) && s[i] == tid:
			i++
			if j < len(t) && t[j] == tid {
				j++
			}
		case j < len(t) && t[j] == tid:
			j++
		default:
			dst = append(dst, tid)
		}
	}
	st.AddMergeSteps(i + j)
	return dst
}

// Words returns the memory footprint of s in 4-byte words. Used by the
// cost model of the run's loop record to account NUMA traffic.
func (s Set) Words() int { return len(s) }
