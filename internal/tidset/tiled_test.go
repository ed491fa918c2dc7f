package tidset

import (
	"fmt"
	"math/rand"
	"testing"
)

// randSetDensity draws a sorted set over [0, universe) where each TID
// is present independently with probability p — p near 1 exercises the
// dense tile form, small p the sparse form, and mid p the mix.
func randSetDensity(rng *rand.Rand, universe int, p float64) Set {
	s := make(Set, 0, int(float64(universe)*p)+1)
	for tid := 0; tid < universe; tid++ {
		if rng.Float64() < p {
			s = append(s, TID(tid))
		}
	}
	return s
}

// clusteredSet draws TIDs in bursts so some tiles are packed and whole
// key ranges are empty — the regime the summary prefilter exists for.
func clusteredSet(rng *rand.Rand, universe int) Set {
	s := Set{}
	tid := 0
	for tid < universe {
		if rng.Intn(4) == 0 { // burst
			run := 32 + rng.Intn(256)
			for i := 0; i < run && tid < universe; i++ {
				if rng.Intn(10) != 0 {
					s = append(s, TID(tid))
				}
				tid++
			}
		} else { // gap
			tid += 64 + rng.Intn(1024)
		}
	}
	return s
}

// TestTiledRoundTrip: FromSet → AppendTo is the identity on sorted
// sets, across densities and under extreme sparse/dense crossovers.
func TestTiledRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sm := range []int{1, tileSparseMax, TileBits} {
		for _, p := range []float64{0.002, 0.05, 0.3, 0.9} {
			s := randSetDensity(rng, 4096, p)
			tt := (&Tiled{}).setFrom(s, sm)
			if got := tt.ToSet(); !got.Equal(s) {
				t.Errorf("sm=%d p=%g: round trip %d TIDs → %d", sm, p, len(s), len(got))
			}
			if tt.Len() != len(s) {
				t.Errorf("sm=%d p=%g: Len %d want %d", sm, p, tt.Len(), len(s))
			}
		}
	}
}

// TestTiledKernelsMatchFlat: every tiled kernel agrees with its flat
// counterpart on random operands, across densities, clustering, and
// sparse/dense crossover settings — including cross-form pairs where
// one operand was built under a different crossover than the other.
func TestTiledKernelsMatchFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	densities := []float64{0.001, 0.01, 0.08, 0.4, 0.95}
	check := func(name string, a, b Set, ta, tb *Tiled) {
		t.Helper()
		dst := &Tiled{}
		if got, want := ta.IntersectInto(tb, dst, nil).ToSet(), a.Intersect(b); !got.Equal(want) {
			t.Errorf("%s: intersect %d TIDs, want %d", name, len(got), len(want))
		}
		if got, want := ta.DiffInto(tb, dst, nil).ToSet(), a.Diff(b); !got.Equal(want) {
			t.Errorf("%s: diff %d TIDs, want %d", name, len(got), len(want))
		}
	}
	for round := 0; round < 3; round++ {
		for _, pa := range densities {
			for _, pb := range densities {
				a := randSetDensity(rng, 3000, pa)
				b := randSetDensity(rng, 3000, pb)
				check("uniform", a, b, FromSet(a), FromSet(b))
			}
		}
		a := clusteredSet(rng, 1<<16)
		b := clusteredSet(rng, 1<<16)
		check("clustered", a, b, FromSet(a), FromSet(b))

		// Cross-form: a built all-sparse, b built all-dense. The
		// kernels must handle every (sparse, dense) tile pairing.
		ta := (&Tiled{}).setFrom(a, TileBits)
		tb := (&Tiled{}).setFrom(b, 1)
		if len(ta.dense) != 0 || len(tb.sparse) > tb.Tiles()-len(tb.dense)/tileWordCount {
			t.Fatalf("cross-form operands not all-sparse / all-dense: %d dense words, %d sparse offsets", len(ta.dense), len(tb.sparse))
		}
		check("cross-form", a, b, ta, tb)
		check("cross-form-swapped", b, a, tb, ta)
	}
}

// TestTiledManyMatchesPairwise: the batched kernels are element-wise
// identical to their pairwise forms, and destinations recycle cleanly
// across rebuilds (stale content from a previous, larger result must
// not leak).
func TestTiledManyMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	px := FromSet(randSetDensity(rng, 8192, 0.3))
	var pys []*Tiled
	for i := 0; i < 7; i++ {
		pys = append(pys, FromSet(randSetDensity(rng, 8192, []float64{0.005, 0.1, 0.7}[i%3])))
	}
	dsts := make([]*Tiled, len(pys))
	for i := range dsts {
		dsts[i] = FromSet(randSetDensity(rng, 8192, 0.5)) // stale content
	}
	TiledIntersectManyInto(px, pys, dsts, nil)
	for i, py := range pys {
		want := px.IntersectInto(py, &Tiled{}, nil)
		if !dsts[i].Equal(want) {
			t.Errorf("intersect many: sibling %d disagrees with pairwise", i)
		}
	}
	TiledDiffManyInto(px, pys, dsts, nil)
	for i, py := range pys {
		want := py.DiffInto(px, &Tiled{}, nil)
		if !dsts[i].Equal(want) {
			t.Errorf("diff many: sibling %d disagrees with pairwise", i)
		}
	}
}

// TestTiledSummarySkips: on operands with disjoint clustered support
// the prefilter actually fires — tiles_skipped is the win the layout
// exists for, so prove it happens.
func TestTiledSummarySkips(t *testing.T) {
	// a occupies even 128-TID tiles, b odd tiles, with one shared tile.
	var a, b Set
	for tile := 0; tile < 64; tile++ {
		base := TID(tile * TileBits)
		for off := TID(0); off < TileBits; off += 2 {
			if tile%2 == 0 || tile == 33 {
				a = append(a, base+off)
			}
			if tile%2 == 1 {
				b = append(b, base+off)
			}
		}
	}
	ta, tb := FromSet(a), FromSet(b)
	got := ta.IntersectInto(tb, &Tiled{}, nil).ToSet()
	if want := a.Intersect(b); !got.Equal(want) {
		t.Fatalf("intersect %d TIDs, want %d", len(got), len(want))
	}
	if len(got) == 0 {
		t.Fatal("test sets should share tile 33")
	}
	// Key directories disjoint except tile 33: no key match → no
	// summary AND at all for the disjoint tiles; the shared tile has
	// overlapping summaries, so zero skips here...
	// ...but offset-disjoint tiles with the same key DO skip:
	c := Set{}
	for tile := 0; tile < 64; tile += 2 {
		base := TID(tile * TileBits)
		for off := TID(1); off < TileBits; off += 4 { // odd offsets only
			c = append(c, base+off)
		}
	}
	tc := FromSet(c)
	if got := ta.IntersectInto(tc, &Tiled{}, nil).ToSet(); !got.Equal(a.Intersect(c)) {
		t.Fatal("offset-disjoint intersect wrong")
	}
}

// naiveSummary is the summary by definition: bit b is set iff in-tile
// offset 2b or 2b+1 is present in the 128-bit tile w0|w1<<64.
func naiveSummary(w0, w1 uint64) uint64 {
	var sum uint64
	for off := 0; off < TileBits; off++ {
		w := w0
		if off >= 64 {
			w = w1
		}
		if w>>(off%64)&1 != 0 {
			sum |= 1 << (off / 2)
		}
	}
	return sum
}

// checkSummaries fails t unless every stored summary of x equals the
// naive summary of its tile's payload, whichever form the tile is in.
func checkSummaries(t *testing.T, name string, x *Tiled) {
	t.Helper()
	for i := range x.keys {
		w0, w1 := x.tileWordsAt(i)
		if got, want := x.sums[i], naiveSummary(w0, w1); got != want {
			t.Fatalf("%s: tile %d (key %d, dense %v): summary %#x, want %#x",
				name, i, x.keys[i], x.meta[i]&tileDenseFlag != 0, got, want)
		}
	}
}

// TestTiledSummarySound checks the invariant the prefilter's skips rest
// on: summaries are exact, so a zero summary AND proves two tiles
// disjoint. It covers summaryOf on random and single-bit words, every
// tile-building path (FromSet, IntersectInto, DiffInto) under
// all-sparse, default and all-dense crossovers, and adversarial pairs:
// the same summary bit from different offsets (a false positive the
// in-tile kernel must resolve), neighbouring pairs (a true skip), and
// TIDs 0, 127, 128 and 255 at the tile edges.
func TestTiledSummarySound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	words := [][2]uint64{{0, 0}, {^uint64(0), ^uint64(0)}, {0x5555555555555555, 0}, {0, 0xaaaaaaaaaaaaaaaa}}
	for off := 0; off < TileBits; off++ {
		var w [2]uint64
		w[off/64] = 1 << (off % 64)
		words = append(words, w)
	}
	for i := 0; i < 2000; i++ {
		words = append(words, [2]uint64{rng.Uint64() & rng.Uint64(), rng.Uint64() & rng.Uint64() & rng.Uint64()})
	}
	for _, w := range words {
		if got, want := summaryOf(w[0], w[1]), naiveSummary(w[0], w[1]); got != want {
			t.Fatalf("summaryOf(%#x, %#x) = %#x, want %#x", w[0], w[1], got, want)
		}
	}

	adversarial := [][2]Set{
		{{0, 2, 4, 126}, {1, 3, 5, 127}},          // same summary bits, disjoint offsets
		{{0, 4, 8}, {2, 6, 10}},                   // neighbouring pairs: summaries disjoint
		{{0, 127, 128, 255}, {127, 128}},          // tile edges, shared
		{{0, 127, 128, 255}, {1, 126, 129, 254}},  // tile edges, same bits, disjoint
		{{0, 127}, {128, 255}},                    // no shared key
		{{127, 128}, {0, 1, 2, 3, 124, 125, 126}}, // only the first tile shared
	}
	var full Set
	for tid := TID(0); tid < 4*TileBits; tid++ {
		full = append(full, tid)
	}
	adversarial = append(adversarial, [2]Set{full, {0, 127, 128, 255, 511}})
	for round := 0; round < 200; round++ {
		p := []float64{0.005, 0.05, 0.3, 0.7, 0.98}
		adversarial = append(adversarial, [2]Set{
			randSetDensity(rng, 4*TileBits, p[rng.Intn(len(p))]),
			randSetDensity(rng, 4*TileBits, p[rng.Intn(len(p))]),
		})
	}

	for n, pair := range adversarial {
		for _, sms := range [][2]int{{1, 1}, {tileSparseMax, tileSparseMax}, {TileBits, TileBits}, {1, TileBits}, {TileBits, 1}} {
			a, b := (&Tiled{}).setFrom(pair[0], sms[0]), (&Tiled{}).setFrom(pair[1], sms[1])
			name := fmt.Sprintf("pair %d, crossovers %v", n, sms)
			checkSummaries(t, name+", a", a)
			checkSummaries(t, name+", b", b)
			for i := range a.keys {
				for j := range b.keys {
					if a.keys[i] != b.keys[j] || a.sums[i]&b.sums[j] != 0 {
						continue
					}
					a0, a1 := a.tileWordsAt(i)
					b0, b1 := b.tileWordsAt(j)
					if a0&b0 != 0 || a1&b1 != 0 {
						t.Fatalf("%s: key %d: zero summary AND over intersecting tiles", name, a.keys[i])
					}
				}
			}
			inter, diff := a.IntersectInto(b, &Tiled{}, nil), a.DiffInto(b, &Tiled{}, nil)
			checkSummaries(t, name+", a∩b", inter)
			checkSummaries(t, name+", a\\b", diff)
			if got, want := inter.ToSet(), pair[0].Intersect(pair[1]); !got.Equal(want) {
				t.Fatalf("%s: intersect %v, want %v", name, got, want)
			}
		}
	}
}

// tiledBenchPair builds one operand pair for a regime and a reusable
// destination, pre-grown so the timed loop measures steady state.
func tiledBenchPair(b *testing.B, pa, pb float64, universe int) (x, y, dst *Tiled) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	x = FromSet(randSetDensity(rng, universe, pa))
	y = FromSet(randSetDensity(rng, universe, pb))
	dst = &Tiled{}
	x.IntersectInto(y, dst, nil) // grow dst to steady state
	return
}

// The three tiled-kernel regimes of the micro suite
// (results/MICRO_tiles.txt): dense×dense hits the branch-free bitmap
// path, sparse×sparse the u8 merge, and the skewed pair the probe path
// plus the summary skips. Each reports allocs — the acceptance bar is
// 0 allocs/op at steady state, matching the flat kernels.
func BenchmarkTiledIntersectInto(b *testing.B) {
	regimes := []struct {
		name     string
		pa, pb   float64
		universe int
	}{
		{"dense-dense", 0.6, 0.6, 1 << 15},
		{"sparse-sparse", 0.02, 0.02, 1 << 15},
		{"sparse-dense", 0.02, 0.6, 1 << 15},
	}
	for _, r := range regimes {
		b.Run(r.name, func(b *testing.B) {
			x, y, dst := tiledBenchPair(b, r.pa, r.pb, r.universe)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.IntersectInto(y, dst, nil)
			}
		})
	}
}

// BenchmarkFlatIntersectIntoRegimes times the flat kernel on the same
// operands as BenchmarkTiledIntersectInto for side-by-side ns/op in
// MICRO_tiles.txt.
func BenchmarkFlatIntersectIntoRegimes(b *testing.B) {
	regimes := []struct {
		name   string
		pa, pb float64
	}{
		{"dense-dense", 0.6, 0.6},
		{"sparse-sparse", 0.02, 0.02},
		{"sparse-dense", 0.02, 0.6},
	}
	for _, r := range regimes {
		b.Run(r.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			x := randSetDensity(rng, 1<<15, r.pa)
			y := randSetDensity(rng, 1<<15, r.pb)
			dst := make(Set, 0, min(len(x), len(y)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = x.IntersectInto(y, dst, nil)
			}
		})
	}
}

// BenchmarkTiledDiffInto covers the diffset-side kernel in the same
// three regimes.
func BenchmarkTiledDiffInto(b *testing.B) {
	regimes := []struct {
		name   string
		pa, pb float64
	}{
		{"dense-dense", 0.6, 0.6},
		{"sparse-sparse", 0.02, 0.02},
		{"sparse-dense", 0.02, 0.6},
	}
	for _, r := range regimes {
		b.Run(r.name, func(b *testing.B) {
			x, y, dst := tiledBenchPair(b, r.pa, r.pb, 1<<15)
			x.DiffInto(y, dst, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.DiffInto(y, dst, nil)
			}
		})
	}
}

// BenchmarkTiledIntersectManyInto measures the batched kernel at arena
// steady state: one parent against an 8-sibling run, recycled dsts.
func BenchmarkTiledIntersectManyInto(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	px := FromSet(randSetDensity(rng, 1<<15, 0.4))
	var pys []*Tiled
	dsts := make([]*Tiled, 8)
	for i := range dsts {
		pys = append(pys, FromSet(randSetDensity(rng, 1<<15, 0.3)))
		dsts[i] = &Tiled{}
	}
	TiledIntersectManyInto(px, pys, dsts, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TiledIntersectManyInto(px, pys, dsts, nil)
	}
}
