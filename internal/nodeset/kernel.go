// The Deng linear-merge kernels. Every kernel is a single forward pass
// over already-sorted node lists — no galloping, no summaries, no
// per-element branching beyond the merge comparison — because the PPC
// ranks make both the 2-itemset ancestor test and the k-itemset
// difference order-compatible with the lists' sort order:
//
//	2-itemset:  DN(xy)  = { n ∈ N(x) : no ancestor of n in N(y) }
//	            support(xy) = support(x) − Σ count(DN(xy))
//	k-itemset:  DN(PXY) = DN(PY) \ DN(PX)       (set difference on Pre)
//	            support(PXY) = support(PX) − Σ count(DN(PXY))
//
// The k-item recurrence is structurally the diffset recurrence
// d(PXY) = d(PY) − d(PX) with tree nodes in place of transactions, so
// the representation drops into the miners' existing combine order
// unchanged; the lists are just shorter by the tree's co-occurrence
// compression. All kernels charge the nlist_nodes_merged counter with
// the entries they actually touched, the nodeset analogue of
// tids_compared.

package nodeset

import (
	"slices"

	"repro/internal/kcount"
)

// DiffL1Into builds the 2-itemset DiffNodeset of {x, y} (codes x < y)
// from the level-1 N-lists N(x) and N(y): the nodes of N(x) with no
// ancestor in N(y), appended to dst[:0]. Returns the list and its
// count sum, so support(xy) = support(x) − sum.
//
// The merge is driven from the short side. Within one item's N-list
// the Pre and Post orders agree (an antichain), so for each m ∈ ny, in
// order, the surviving prefix of nx — entries with Pre < m.Pre and
// Post < m.Post — is emitted (nothing later in ny can contain them:
// later Pre ranks are larger still), and then the covered run —
// entries with Post < m.Post, which necessarily have Pre > m.Pre and
// sit under m — is skipped by a galloping seek rather than touched
// element-wise. On the compressed trees this representation targets, a
// frequent item's node near the root covers whole subtrees of the
// deeper item's nodes, so the seek turns the dominant case from
// O(|nx|) into O(|ny| log |nx| + output).
func DiffL1Into(nx, ny []L1Entry, dst List, st *kcount.Stats) (List, int) {
	dst = dst[:0]
	sum, i, steps := 0, 0, 0
	for j := 0; j < len(ny) && i < len(nx); j++ {
		yPre, yPost := ny[j].Pre, ny[j].Post
		for i < len(nx) && nx[i].Pre < yPre && nx[i].Post < yPost {
			dst = append(dst, Entry{Pre: nx[i].Pre, Count: nx[i].Count})
			sum += int(nx[i].Count)
			i++
			steps++
		}
		i, steps = seekPost(nx, i, yPost, steps)
	}
	for ; i < len(nx); i++ {
		dst = append(dst, Entry{Pre: nx[i].Pre, Count: nx[i].Count})
		sum += int(nx[i].Count)
		steps++
	}
	st.AddNListMerge(steps + len(ny))
	return dst, sum
}

// seekPost returns the first index ≥ i whose Post rank reaches limit,
// by exponential probing then bisection — O(log run) probes to skip a
// covered run of any length. steps is advanced by the probe count so
// the merge counters reflect entries actually touched.
func seekPost(nx []L1Entry, i int, limit uint32, steps int) (int, int) {
	if i >= len(nx) || nx[i].Post >= limit {
		return i, steps
	}
	lo, step := i, 1 // nx[lo].Post < limit
	hi := len(nx)
	for probe := lo + step; probe < hi; probe = lo + step {
		steps++
		if nx[probe].Post >= limit {
			hi = probe
			break
		}
		lo = probe
		step <<= 1
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		steps++
		if nx[mid].Post < limit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, steps + 1
}

// DiffInto computes the k-itemset DiffNodeset src \ sub (DN(PY) \
// DN(PX)) by a linear merge on Pre, appended to dst[:0]. Returns the
// list and its count sum, so support(PXY) = support(PX) − sum. Counts
// need no arithmetic: both lists reference nodes of one tree, so a
// shared Pre carries the same Count on both sides.
// The pass is driven by the subtrahend: for each b ∈ sub, the run of
// src entries below b is emitted in a two-term loop (branch-predictable
// on the common long-run case), then a single comparison cancels the
// shared node if present. Everything after the last subtrahend entry
// is appended wholesale.
func DiffInto(src, sub, dst List, st *kcount.Stats) (List, int) {
	dst = dst[:0]
	sum, i := 0, 0
	for j := 0; j < len(sub) && i < len(src); j++ {
		b := sub[j].Pre
		for i < len(src) && src[i].Pre < b {
			dst = append(dst, src[i])
			sum += int(src[i].Count)
			i++
		}
		if i < len(src) && src[i].Pre == b {
			i++
		}
	}
	for ; i < len(src); i++ {
		dst = append(dst, src[i])
		sum += int(src[i].Count)
	}
	st.AddNListMerge(len(src) + len(sub))
	return dst, sum
}

// DiffL1ManyInto is the prefix-blocked form of DiffL1Into: one resident
// N-list nx (the block's shared parent x) against every sibling's
// N-list, storing child i's DiffNodeset in dsts[i] (appended to
// dsts[i][:0]) and its count sum in sums[i]. Charges the batch
// counters with nx's payload words as the parent traffic saved.
func DiffL1ManyInto(nx []L1Entry, nys [][]L1Entry, dsts []List, sums []int, st *kcount.Stats) {
	m := len(nys)
	if m == 0 {
		return
	}
	steps := 0
	for bi, ny := range nys {
		dst := dsts[bi][:0]
		sum, i := 0, 0
		for j := 0; j < len(ny) && i < len(nx); j++ {
			yPre, yPost := ny[j].Pre, ny[j].Post
			for i < len(nx) && nx[i].Pre < yPre && nx[i].Post < yPost {
				dst = append(dst, Entry{Pre: nx[i].Pre, Count: nx[i].Count})
				sum += int(nx[i].Count)
				i++
				steps++
			}
			i, steps = seekPost(nx, i, yPost, steps)
		}
		for ; i < len(nx); i++ {
			dst = append(dst, Entry{Pre: nx[i].Pre, Count: nx[i].Count})
			sum += int(nx[i].Count)
			steps++
		}
		dsts[bi], sums[bi] = dst, sum
		steps += len(ny)
	}
	st.AddNListMerge(steps)
	st.AddBatch(m, len(nx)*L1EntryBytes/4)
}

// DiffManyInto is the prefix-blocked form of DiffInto: the block's
// shared parent contributes the subtrahend sub = DN(PX), subtracted
// from every sibling's srcs[i] = DN(PY_i). Like tidset.DiffManyInto,
// the resident subtrahend is trimmed to each source's Pre window
// before the merge.
func DiffManyInto(sub List, srcs []List, dsts []List, sums []int, st *kcount.Stats) {
	m := len(srcs)
	if m == 0 {
		return
	}
	for i, src := range srcs {
		t := sub
		if len(src) > 0 && len(t) > 0 {
			t = trimList(t, src[0].Pre, src[len(src)-1].Pre)
		}
		dsts[i], sums[i] = DiffInto(src, t, dsts[i], st)
	}
	st.AddBatch(m, len(sub)*EntryBytes/4)
}

// trimList returns the sub-slice of l whose Pre ranks lie in the closed
// window [lo, hi], located by binary search: entries outside it cannot
// cancel an element of a list bounded by [lo, hi].
func trimList(l List, lo, hi uint32) List {
	a, _ := slices.BinarySearchFunc(l, lo, func(e Entry, limit uint32) int {
		if e.Pre < limit {
			return -1
		}
		if e.Pre > limit {
			return 1
		}
		return 0
	})
	b, _ := slices.BinarySearchFunc(l[a:], hi, func(e Entry, limit uint32) int {
		if e.Pre <= limit {
			return -1
		}
		return 1
	})
	return l[a : a+b]
}
