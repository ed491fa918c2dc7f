// Tiled is the tile-partitioned tidset layout: the TID universe is cut
// into fixed 128-TID tiles (key = tid >> 7) and a set stores only its
// non-empty tiles, each carrying a 64-bit occupancy summary word and a
// per-tile payload that is either sparse (sorted u8 in-tile offsets) or
// dense (a 128-bit bitmap), chosen by cardinality at tile-build time —
// the roaring-style switch. Intersection then runs in two phases: a
// branch-free AND over summary words that discards whole tiles with
// provably empty intersections, and an in-tile kernel only where the
// prefilter says both sides are populated. This is the layout argument
// of Amossen & Pagh (fixed-width blocks turn data-dependent merges into
// word operations) applied to the paper's candidate-combine loop: the
// flat kernels walk every element of both operands, while the tiled
// kernels touch one summary word per ~128-TID span and skip the
// payload entirely wherever supports don't overlap.
//
// Summary semantics: bit b of a tile's summary covers the two in-tile
// offsets {2b, 2b+1}, and the builders keep summaries exact (bit set
// iff at least one covered TID is present). A zero AND of two summaries
// therefore proves the tiles disjoint — skipping is always sound — and
// a nonzero AND can still be a false positive at TID granularity, which
// the in-tile kernel resolves.
//
// All destructive kernels follow the package's "Into" discipline: they
// rebuild dst from length zero while keeping its backing arrays, so
// arena-recycled destinations reach a steady state with zero
// allocations per combine, matching the flat kernels.
package tidset

import (
	"math/bits"

	"repro/internal/kcount"
)

// Tile geometry. The width is compile-time: in-tile offsets are uint8
// and dense payloads are exactly two 64-bit words, both of which assume
// 128 (results/CALIBRATE_tiles.txt records the 64/256-TID simulation
// behind the choice).
const (
	// TileBits is the number of TIDs covered by one tile.
	TileBits = 128
	// TileShift converts a TID to its tile key: key = tid >> TileShift.
	TileShift     = 7
	tileMask      = TileBits - 1
	tileWordCount = TileBits / 64

	// tileDenseFlag marks a dense (bitmap) tile in the meta word; the
	// low bits hold the tile cardinality (1..128).
	tileDenseFlag = 1 << 15

	// tileSparseMax is the sparse/dense crossover: a tile of at most
	// this many TIDs is stored (and intersected) as sorted u8 offsets,
	// a fuller one as a 128-bit bitmap. 16 is the memory-neutral point,
	// where 16 u8 offsets take exactly the 16 bytes of a bitmap.
	tileSparseMax = 16
)

// Tiled is a tile-partitioned tidset. The zero value is an empty set
// ready for use as a kernel destination. Tiles are stored as parallel
// arrays sorted by key, with payloads packed into two shared pools so a
// whole set is six allocations regardless of tile count.
type Tiled struct {
	keys []uint32 // tile keys, strictly ascending
	sums []uint64 // exact occupancy summaries, parallel to keys
	meta []uint16 // cardinality | tileDenseFlag, parallel to keys
	offs []uint32 // payload start in sparse (u8s) or dense (words)

	sparse []uint8  // pooled sparse payloads: sorted in-tile offsets
	dense  []uint64 // pooled dense payloads: tileWordCount words each

	n int // total cardinality, maintained by the append helpers
}

// FromSet builds the tiled form of sorted set s.
func FromSet(s Set) *Tiled {
	t := &Tiled{}
	t.SetFrom(s)
	return t
}

// SetFrom rebuilds t from sorted set s, reusing t's backing arrays.
func (t *Tiled) SetFrom(s Set) *Tiled { return t.setFrom(s, tileSparseMax) }

// setFrom is SetFrom with the sparse/dense crossover sm as a parameter:
// tiles of at most sm TIDs are stored sparse, fuller ones dense. Tests
// build operands with sm = TileBits (all sparse) and sm = 1 (dense but
// for one-TID tiles) to drive every tile pairing through the kernels;
// the kernels' own results always follow tileSparseMax.
func (t *Tiled) setFrom(s Set, sm int) *Tiled {
	t.reset()
	for i := 0; i < len(s); {
		key := s[i] >> TileShift
		j := i + 1
		for j < len(s) && s[j]>>TileShift == key {
			j++
		}
		run := s[i:j]
		if len(run) <= sm {
			var buf [TileBits]uint8
			for k, tid := range run {
				buf[k] = uint8(tid & tileMask)
			}
			t.appendSparseTile(key, buf[:len(run)])
		} else {
			var w0, w1 uint64
			for _, tid := range run {
				if off := tid & tileMask; off < 64 {
					w0 |= 1 << off
				} else {
					w1 |= 1 << (off - 64)
				}
			}
			t.appendWordsTile(key, w0, w1, sm)
		}
		i = j
	}
	return t
}

// Len returns the cardinality |t|.
func (t *Tiled) Len() int { return t.n }

// Tiles returns the number of non-empty tiles.
func (t *Tiled) Tiles() int { return len(t.keys) }

// Bytes returns t's payload footprint: directory plus pooled payloads.
func (t *Tiled) Bytes() int {
	return 4*len(t.keys) + 8*len(t.sums) + 2*len(t.meta) + 4*len(t.offs) +
		len(t.sparse) + 8*len(t.dense)
}

// Words returns the footprint in 4-byte words, the unit the batch
// counters use for parent-traffic accounting (matching Set.Words).
func (t *Tiled) Words() int { return (t.Bytes() + 3) / 4 }

// reset empties t while keeping its backing arrays.
func (t *Tiled) reset() {
	t.keys = t.keys[:0]
	t.sums = t.sums[:0]
	t.meta = t.meta[:0]
	t.offs = t.offs[:0]
	t.sparse = t.sparse[:0]
	t.dense = t.dense[:0]
	t.n = 0
}

// AppendTo appends t's TIDs, ascending, to dst and returns it.
func (t *Tiled) AppendTo(dst Set) Set {
	for i := range t.keys {
		base := TID(t.keys[i]) << TileShift
		o := t.offs[i]
		if t.meta[i]&tileDenseFlag != 0 {
			for w := t.dense[o]; w != 0; w &= w - 1 {
				dst = append(dst, base+TID(bits.TrailingZeros64(w)))
			}
			for w := t.dense[o+1]; w != 0; w &= w - 1 {
				dst = append(dst, base+64+TID(bits.TrailingZeros64(w)))
			}
		} else {
			for _, off := range t.sparse[o : o+uint32(t.meta[i])] {
				dst = append(dst, base+TID(off))
			}
		}
	}
	return dst
}

// ToSet returns t decoded to the flat sorted-set form.
func (t *Tiled) ToSet() Set { return t.AppendTo(make(Set, 0, t.n)) }

// Equal reports whether t and u hold the same TIDs. The comparison is
// logical: a tile stored sparse on one side and dense on the other
// (possible when setFrom built one set with another crossover) still
// compares equal.
func (t *Tiled) Equal(u *Tiled) bool {
	if t.n != u.n || len(t.keys) != len(u.keys) {
		return false
	}
	for i := range t.keys {
		if t.keys[i] != u.keys[i] {
			return false
		}
		a0, a1 := t.tileWordsAt(i)
		b0, b1 := u.tileWordsAt(i)
		if a0 != b0 || a1 != b1 {
			return false
		}
	}
	return true
}

// tileWordsAt returns tile i's membership as a 128-bit bitmap,
// regardless of stored form.
func (t *Tiled) tileWordsAt(i int) (w0, w1 uint64) {
	o := t.offs[i]
	if t.meta[i]&tileDenseFlag != 0 {
		return t.dense[o], t.dense[o+1]
	}
	for _, off := range t.sparse[o : o+uint32(t.meta[i])] {
		if off < 64 {
			w0 |= 1 << off
		} else {
			w1 |= 1 << (off - 64)
		}
	}
	return
}

// evenBits compresses the even-indexed bits of w into the low 32 bits
// (the standard parallel bit-compress cascade).
func evenBits(w uint64) uint32 {
	w &= 0x5555555555555555
	w = (w | w>>1) & 0x3333333333333333
	w = (w | w>>2) & 0x0f0f0f0f0f0f0f0f
	w = (w | w>>4) & 0x00ff00ff00ff00ff
	w = (w | w>>8) & 0x0000ffff0000ffff
	w = (w | w>>16) & 0x00000000ffffffff
	return uint32(w)
}

// summaryOf computes the exact occupancy summary of a bitmap tile: bit
// b of the result is the OR of payload bits 2b and 2b+1.
func summaryOf(w0, w1 uint64) uint64 {
	return uint64(evenBits(w0|w0>>1)) | uint64(evenBits(w1|w1>>1))<<32
}

// appendSparseTile appends a sparse tile (sorted in-tile offsets) with
// an exact summary. Empty tiles are never stored.
func (t *Tiled) appendSparseTile(key uint32, offs []uint8) {
	if len(offs) == 0 {
		return
	}
	var sum uint64
	for _, off := range offs {
		sum |= 1 << (off >> 1)
	}
	t.keys = append(t.keys, key)
	t.sums = append(t.sums, sum)
	t.meta = append(t.meta, uint16(len(offs)))
	t.offs = append(t.offs, uint32(len(t.sparse)))
	t.sparse = append(t.sparse, offs...)
	t.n += len(offs)
}

// appendWordsTile appends a tile given as a 128-bit bitmap, choosing
// the stored form by cardinality against the sparse/dense crossover sm.
func (t *Tiled) appendWordsTile(key uint32, w0, w1 uint64, sm int) {
	card := bits.OnesCount64(w0) + bits.OnesCount64(w1)
	if card == 0 {
		return
	}
	if card <= sm {
		var buf [TileBits]uint8
		k := 0
		for w := w0; w != 0; w &= w - 1 {
			buf[k] = uint8(bits.TrailingZeros64(w))
			k++
		}
		for w := w1; w != 0; w &= w - 1 {
			buf[k] = uint8(64 + bits.TrailingZeros64(w))
			k++
		}
		t.appendSparseTile(key, buf[:k])
		return
	}
	t.keys = append(t.keys, key)
	t.sums = append(t.sums, summaryOf(w0, w1))
	t.meta = append(t.meta, uint16(card)|tileDenseFlag)
	t.offs = append(t.offs, uint32(len(t.dense)))
	t.dense = append(t.dense, w0, w1)
	t.n += card
}

// copyTile appends src's tile i to t verbatim.
func (t *Tiled) copyTile(src *Tiled, i int) {
	m := src.meta[i]
	card := int(m &^ tileDenseFlag)
	t.keys = append(t.keys, src.keys[i])
	t.sums = append(t.sums, src.sums[i])
	t.meta = append(t.meta, m)
	o := src.offs[i]
	if m&tileDenseFlag != 0 {
		t.offs = append(t.offs, uint32(len(t.dense)))
		t.dense = append(t.dense, src.dense[o], src.dense[o+1])
	} else {
		t.offs = append(t.offs, uint32(len(t.sparse)))
		t.sparse = append(t.sparse, src.sparse[o:o+uint32(card)]...)
	}
	t.n += card
}

// IntersectInto rebuilds dst as t ∩ u and returns it. dst must not
// alias t or u (the arena's combine paths guarantee this). Phase one
// merges the two key directories and ANDs summary words; phase two runs
// the sparse/dense in-tile kernel only where the prefilter passed. One
// AddTiles charge per call, from loop-local tallies.
func (t *Tiled) IntersectInto(u, dst *Tiled, st *kcount.Stats) *Tiled {
	dst.reset()
	i, j := 0, 0
	summaryANDs, skipped, sparseK, denseK := 0, 0, 0, 0
	for i < len(t.keys) && j < len(u.keys) {
		a, b := t.keys[i], u.keys[j]
		if a < b {
			i++
			continue
		}
		if b < a {
			j++
			continue
		}
		summaryANDs++
		if t.sums[i]&u.sums[j] == 0 {
			skipped++
		} else {
			dst.intersectTile(t, i, u, j, &sparseK, &denseK)
		}
		i++
		j++
	}
	st.AddTiles(summaryANDs, skipped, sparseK, denseK)
	return dst
}

// intersectTile intersects a's tile i with b's tile j into dst.
func (dst *Tiled) intersectTile(a *Tiled, i int, b *Tiled, j int, sparseK, denseK *int) {
	key := a.keys[i]
	da := a.meta[i]&tileDenseFlag != 0
	db := b.meta[j]&tileDenseFlag != 0
	switch {
	case da && db:
		*denseK++
		oa, ob := a.offs[i], b.offs[j]
		dst.appendWordsTile(key, a.dense[oa]&b.dense[ob], a.dense[oa+1]&b.dense[ob+1], tileSparseMax)
	case !da && !db:
		*sparseK++
		sa := a.sparse[a.offs[i] : a.offs[i]+uint32(a.meta[i])]
		sb := b.sparse[b.offs[j] : b.offs[j]+uint32(b.meta[j])]
		var buf [TileBits]uint8
		k, p, q := 0, 0, 0
		for p < len(sa) && q < len(sb) {
			x, y := sa[p], sb[q]
			switch {
			case x < y:
				p++
			case y < x:
				q++
			default:
				buf[k] = x
				k++
				p++
				q++
			}
		}
		dst.appendSparseTile(key, buf[:k])
	default:
		*sparseK++
		var sp []uint8
		var w0, w1 uint64
		if da {
			o := a.offs[i]
			w0, w1 = a.dense[o], a.dense[o+1]
			o = b.offs[j]
			sp = b.sparse[o : o+uint32(b.meta[j])]
		} else {
			o := b.offs[j]
			w0, w1 = b.dense[o], b.dense[o+1]
			o = a.offs[i]
			sp = a.sparse[o : o+uint32(a.meta[i])]
		}
		var buf [TileBits]uint8
		k := 0
		for _, off := range sp {
			if off < 64 {
				if w0>>off&1 != 0 {
					buf[k] = off
					k++
				}
			} else if w1>>(off-64)&1 != 0 {
				buf[k] = off
				k++
			}
		}
		dst.appendSparseTile(key, buf[:k])
	}
}

// DiffInto rebuilds dst as t \ u and returns it. dst must not alias t
// or u. Tiles of t with no key match in u — or a zero summary AND —
// copy through without touching payloads.
func (t *Tiled) DiffInto(u, dst *Tiled, st *kcount.Stats) *Tiled {
	dst.reset()
	i, j := 0, 0
	summaryANDs, skipped, sparseK, denseK := 0, 0, 0, 0
	for i < len(t.keys) {
		if j >= len(u.keys) || t.keys[i] < u.keys[j] {
			dst.copyTile(t, i)
			i++
			continue
		}
		if u.keys[j] < t.keys[i] {
			j++
			continue
		}
		summaryANDs++
		if t.sums[i]&u.sums[j] == 0 {
			skipped++
			dst.copyTile(t, i)
		} else {
			dst.diffTile(t, i, u, j, &sparseK, &denseK)
		}
		i++
		j++
	}
	st.AddTiles(summaryANDs, skipped, sparseK, denseK)
	return dst
}

// diffTile appends a's tile i minus b's tile j to dst.
func (dst *Tiled) diffTile(a *Tiled, i int, b *Tiled, j int, sparseK, denseK *int) {
	key := a.keys[i]
	da := a.meta[i]&tileDenseFlag != 0
	db := b.meta[j]&tileDenseFlag != 0
	switch {
	case da && db:
		*denseK++
		oa, ob := a.offs[i], b.offs[j]
		dst.appendWordsTile(key, a.dense[oa]&^b.dense[ob], a.dense[oa+1]&^b.dense[ob+1], tileSparseMax)
	case !da && !db:
		*sparseK++
		sa := a.sparse[a.offs[i] : a.offs[i]+uint32(a.meta[i])]
		sb := b.sparse[b.offs[j] : b.offs[j]+uint32(b.meta[j])]
		var buf [TileBits]uint8
		k, p, q := 0, 0, 0
		for p < len(sa) && q < len(sb) {
			x, y := sa[p], sb[q]
			switch {
			case x < y:
				buf[k] = x
				k++
				p++
			case y < x:
				q++
			default:
				p++
				q++
			}
		}
		k += copy(buf[k:], sa[p:])
		dst.appendSparseTile(key, buf[:k])
	case !da: // sparse \ dense: keep offsets whose bitmap bit is clear
		*sparseK++
		o := b.offs[j]
		w0, w1 := b.dense[o], b.dense[o+1]
		sa := a.sparse[a.offs[i] : a.offs[i]+uint32(a.meta[i])]
		var buf [TileBits]uint8
		k := 0
		for _, off := range sa {
			if off < 64 {
				if w0>>off&1 == 0 {
					buf[k] = off
					k++
				}
			} else if w1>>(off-64)&1 == 0 {
				buf[k] = off
				k++
			}
		}
		dst.appendSparseTile(key, buf[:k])
	default: // dense \ sparse: clear the subtrahend's bits
		*sparseK++
		o := a.offs[i]
		w0, w1 := a.dense[o], a.dense[o+1]
		for _, off := range b.sparse[b.offs[j] : b.offs[j]+uint32(b.meta[j])] {
			if off < 64 {
				w0 &^= 1 << off
			} else {
				w1 &^= 1 << (off - 64)
			}
		}
		dst.appendWordsTile(key, w0, w1, tileSparseMax)
	}
}

// TiledIntersectManyInto intersects one resident parent px against
// every sibling in pys, rebuilding dsts[i] (entries must be non-nil,
// non-aliasing). Like the flat IntersectManyInto, the point is parent
// residency: px's directory and payloads stay cache-hot across the
// whole sibling run instead of being re-streamed per pair. Charges one
// batch_calls tick and (m−1)×px.Words() parent_words_saved.
func TiledIntersectManyInto(px *Tiled, pys []*Tiled, dsts []*Tiled, st *kcount.Stats) {
	m := len(pys)
	if m == 0 {
		return
	}
	for i, py := range pys {
		px.IntersectInto(py, dsts[i], st)
	}
	st.AddBatch(m, px.Words())
}

// TiledDiffManyInto rebuilds dsts[i] as srcs[i] \ sub for every
// sibling — the diffset combine d(PXY) = d(PY) − d(PX) batched over a
// prefix block with the shared subtrahend resident.
func TiledDiffManyInto(sub *Tiled, srcs []*Tiled, dsts []*Tiled, st *kcount.Stats) {
	m := len(srcs)
	if m == 0 {
		return
	}
	for i, src := range srcs {
		src.DiffInto(sub, dsts[i], st)
	}
	st.AddBatch(m, sub.Words())
}

// Poison overwrites every backing array, through its full capacity,
// with garbage. Test-only hook for the aliasing harness: after a
// combine, poisoning one operand must not disturb the result (and vice
// versa), proving the kernels never share backing storage across nodes.
func (t *Tiled) Poison() {
	for i := range t.keys[:cap(t.keys)] {
		t.keys[:cap(t.keys)][i] = 0xdeadbeef
	}
	for i := range t.sums[:cap(t.sums)] {
		t.sums[:cap(t.sums)][i] = ^uint64(0)
	}
	for i := range t.meta[:cap(t.meta)] {
		t.meta[:cap(t.meta)][i] = 0xffff
	}
	for i := range t.offs[:cap(t.offs)] {
		t.offs[:cap(t.offs)][i] = 0xdeadbeef
	}
	for i := range t.sparse[:cap(t.sparse)] {
		t.sparse[:cap(t.sparse)][i] = 0xff
	}
	for i := range t.dense[:cap(t.dense)] {
		t.dense[:cap(t.dense)][i] = ^uint64(0)
	}
}
