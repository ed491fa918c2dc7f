package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/kcount"
	"repro/internal/tidset"
)

// calibrateGallop re-times the merge-vs-gallop intersection crossover
// on this host: the short side is held at a fixed dense-data-typical
// length while the long side grows, and both strategies run on the
// same operands. The recommended threshold is the smallest swept ratio
// from which galloping wins at every larger ratio — the value
// tidset.gallopRatio should hold for this machine. Output is meant to
// be committed (results/CALIBRATE_gallop.txt) so the constant's
// provenance is on record.
func calibrateGallop() {
	const shortLen = 2048
	const minTime = 20 * time.Millisecond
	r := rand.New(rand.NewSource(1))
	fmt.Printf("# tidset merge-vs-gallop crossover, short side %d TIDs\n", shortLen)
	fmt.Printf("%6s %12s %12s %8s\n", "ratio", "merge ns/op", "gallop ns/op", "winner")
	ratios := []int{2, 4, 8, 12, 16, 24, 32, 48, 64}
	var gallopWins []bool
	for _, ratio := range ratios {
		long := randomSet(r, shortLen*ratio, shortLen*ratio*4)
		short := randomSet(r, shortLen, shortLen*ratio*4)
		mergeNs := timeIntersect(tidset.MergeIntersectInto, short, long, minTime)
		gallopNs := timeIntersect(tidset.GallopIntersectInto, short, long, minTime)
		winner := "merge"
		if gallopNs < mergeNs {
			winner = "gallop"
		}
		gallopWins = append(gallopWins, gallopNs < mergeNs)
		fmt.Printf("%6d %12.0f %12.0f %8s\n", ratio, mergeNs, gallopNs, winner)
	}
	rec := 0
	for i := len(ratios) - 1; i >= 0; i-- {
		if !gallopWins[i] {
			break
		}
		rec = ratios[i]
	}
	if rec == 0 {
		fmt.Println("# galloping never won in the swept range; keep a high threshold")
		return
	}
	fmt.Printf("# recommended gallopRatio: %d (gallop wins from this ratio up)\n", rec)
}

// randomSet draws n distinct sorted TIDs from [0, universe).
func randomSet(r *rand.Rand, n, universe int) tidset.Set {
	seen := make(map[tidset.TID]bool, n)
	s := make(tidset.Set, 0, n)
	for len(s) < n {
		v := tidset.TID(r.Intn(universe))
		if !seen[v] {
			seen[v] = true
			s = append(s, v)
		}
	}
	slices.Sort(s)
	return s
}

// timeIntersect runs fn(short, long) repeatedly for at least minTime
// and returns the mean nanoseconds per call.
func timeIntersect(fn func(s, t, dst tidset.Set, st *kcount.Stats) tidset.Set, short, long tidset.Set, minTime time.Duration) float64 {
	dst := make(tidset.Set, 0, len(short))
	// Warm up once so first-touch page faults stay out of the timing.
	dst = fn(short, long, dst, nil)
	iters := 0
	start := time.Now()
	for time.Since(start) < minTime {
		dst = fn(short, long, dst, nil)
		iters++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}
