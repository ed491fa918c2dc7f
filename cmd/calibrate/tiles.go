package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/tidset"
)

// calibrateTiles re-times the tiled layout's two host-dependent choices
// and (optionally) writes the resulting calibration file.
//
// Sweep 1 — sparse/dense crossover: every tile of both operands holds
// exactly c TIDs, and the same intersection is timed with the tiles
// forced sparse (sorted u8 offsets) and forced dense (128-bit bitmaps)
// via ApplyCalibration. The recommended tile_sparse_max is the largest
// cardinality up to which the sparse form wins contiguously from the
// bottom — the value the kernels should use on this machine.
//
// Sweep 2 — tile width: the width is compile-time (u8 offsets and
// 2-word bitmaps assume 128), so this sweep times self-contained local
// summary-AND kernels at 64/128/256 bits per tile over the same
// synthetic occupancy patterns. It cannot retune the build; it puts on
// record whether 128 remains the right width for this host, and the
// calibration file carries tile_bits only so a mismatched file is
// rejected instead of misapplied.
func calibrateTiles(writePath string) {
	const minTime = 20 * time.Millisecond
	r := rand.New(rand.NewSource(1))

	fmt.Printf("# tiled sparse-vs-dense per-tile crossover, %d-TID tiles\n", tidset.TileBits)
	fmt.Printf("%6s %12s %12s %8s\n", "card", "sparse ns/op", "dense ns/op", "winner")
	cards := []int{2, 4, 8, 12, 16, 20, 24, 32, 48, 64, 96}
	const nTiles = 2048
	var sparseWins []bool
	for _, card := range cards {
		a, b := uniformCardPair(r, nTiles, card)
		sparseNs := timeTiledIntersect(a, b, tidset.TileBits, minTime) // card ≤ 128 ⇒ all sparse
		denseNs := timeTiledIntersect(a, b, 1, minTime)                // card > 1 ⇒ all dense
		winner := "dense"
		if sparseNs < denseNs {
			winner = "sparse"
		}
		sparseWins = append(sparseWins, sparseNs < denseNs)
		fmt.Printf("%6d %12.0f %12.0f %8s\n", card, sparseNs, denseNs, winner)
	}
	rec := 0
	for i, card := range cards {
		if !sparseWins[i] {
			break
		}
		rec = card
	}
	if rec == 0 {
		rec = 1 // dense always won; keep only singleton tiles sparse
		fmt.Println("# sparse never won in the swept range; recommended tile_sparse_max: 1")
	} else {
		fmt.Printf("# recommended tile_sparse_max: %d (sparse wins up to this cardinality)\n", rec)
	}

	fmt.Printf("\n# tile-width simulation: summary-AND prefilter + dense AND, local kernels\n")
	fmt.Printf("%6s %10s %12s %12s %12s\n", "width", "occupancy", "ns/op", "ns/KTID", "skip%")
	for _, words := range []int{1, 2, 4} { // 64-, 128-, 256-bit tiles
		for _, occ := range []float64{0.10, 0.50, 0.90} {
			ns, skip := timeWidthKernel(r, words, occ, minTime)
			universe := float64(simTiles * words * 64)
			fmt.Printf("%6d %9.0f%% %12.0f %12.2f %11.1f%%\n",
				words*64, occ*100, ns, ns/(universe/1000), skip*100)
		}
	}
	fmt.Printf("# this build's width is fixed at %d bits; the sweep documents the choice\n", tidset.TileBits)

	if writePath != "" {
		c := tidset.CurrentCalibration()
		c.TileSparseMax = rec
		if err := tidset.WriteCalibrationFile(writePath, c); err != nil {
			panic(err)
		}
		fmt.Printf("# wrote calibration to %s\n", writePath)
	}
}

// uniformCardPair builds two TID sets in which every one of nTiles
// consecutive tiles holds exactly card distinct offsets, so the forced
// sparse/dense forms are uniform across the whole operand.
func uniformCardPair(r *rand.Rand, nTiles, card int) (a, b tidset.Set) {
	build := func() tidset.Set {
		s := make(tidset.Set, 0, nTiles*card)
		offs := make([]int, tidset.TileBits)
		for i := range offs {
			offs[i] = i
		}
		for t := 0; t < nTiles; t++ {
			r.Shuffle(len(offs), func(i, j int) { offs[i], offs[j] = offs[j], offs[i] })
			pick := slices.Clone(offs[:card])
			slices.Sort(pick)
			base := tidset.TID(t * tidset.TileBits)
			for _, o := range pick {
				s = append(s, base+tidset.TID(o))
			}
		}
		return s
	}
	return build(), build()
}

// timeTiledIntersect builds both operands under the forced
// tile_sparse_max (form is chosen at build time), restores the previous
// calibration afterwards, and returns mean ns per IntersectInto call.
func timeTiledIntersect(a, b tidset.Set, forcedSparseMax int, minTime time.Duration) float64 {
	prev, err := tidset.ApplyCalibration(tidset.Calibration{TileSparseMax: forcedSparseMax})
	if err != nil {
		panic(err)
	}
	defer tidset.ApplyCalibration(prev)
	ta, tb := tidset.FromSet(a), tidset.FromSet(b)
	dst := &tidset.Tiled{}
	ta.IntersectInto(tb, dst, nil) // warm-up: page in the destination
	iters := 0
	start := time.Now()
	for time.Since(start) < minTime {
		ta.IntersectInto(tb, dst, nil)
		iters++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

const simTiles = 4096

// timeWidthKernel times a self-contained tile intersection at the given
// words-per-tile: one summary bit per tile (exact nonzero-ness), AND
// the summaries, AND the tile words only where the summary survived.
// Returns mean ns per pass and the fraction of tile ANDs skipped.
func timeWidthKernel(r *rand.Rand, wordsPerTile int, occupancy float64, minTime time.Duration) (ns float64, skipFrac float64) {
	build := func() ([]uint64, []uint64) {
		tiles := make([]uint64, simTiles*wordsPerTile)
		summary := make([]uint64, (simTiles+63)/64)
		for t := 0; t < simTiles; t++ {
			if r.Float64() >= occupancy {
				continue
			}
			for w := 0; w < wordsPerTile; w++ {
				tiles[t*wordsPerTile+w] = r.Uint64()
			}
			summary[t/64] |= 1 << (t % 64)
		}
		return tiles, summary
	}
	ta, sa := build()
	tb, sb := build()
	dst := make([]uint64, simTiles*wordsPerTile)
	kept, skipped := 0, 0
	pass := func() {
		for sw := range sa {
			live := sa[sw] & sb[sw]
			for bit := 0; bit < 64; bit++ {
				t := sw*64 + bit
				if t >= simTiles {
					break
				}
				if live&(1<<bit) == 0 {
					skipped++
					continue
				}
				kept++
				base := t * wordsPerTile
				for w := 0; w < wordsPerTile; w++ {
					dst[base+w] = ta[base+w] & tb[base+w]
				}
			}
		}
	}
	pass() // warm-up
	kept, skipped = 0, 0
	iters := 0
	start := time.Now()
	for time.Since(start) < minTime {
		pass()
		iters++
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(iters),
		float64(skipped) / float64(kept+skipped)
}
