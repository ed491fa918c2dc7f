package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eclat"
	"repro/internal/gen"
	"repro/internal/vertical"
)

// calibrateNodeset times the nodeset (DiffNodeset) representation
// against tiled tidsets across database densities and reports the
// crossover. The sweep walks the categorical generator's conformity
// knob — the same generator behind the chess/mushroom/pumsb replicas —
// from nearly uncorrelated rows to tightly clustered ones, because the
// quantity the PPC tree monetizes is co-occurrence: conformist rows
// share long prefixes (few tree nodes, short N-lists, cheap merges),
// while uncorrelated rows degenerate toward one tree path per
// transaction, where the tree is pure overhead over a flat tidset.
// Each cell reports its measured fill density — average recoded
// transaction length over the frequent-item universe — which is the
// axis the recommendation is stated on: on uncorrelated data density
// stays low and tiled keeps winning, exactly as it should.
//
// Each cell mines the same synthetic database end to end with
// single-threaded Eclat under both representations, in the ascending-
// support item order fim.Mine recodes every run in. The PPC build is
// charged to nodeset and the tile build to tiled: the crossover must
// price the encodings, not just the kernels. The recommended density is the smallest measured
// density from which nodeset wins contiguously through the top of the
// sweep. It is printed, not written: representations are caller-chosen,
// so no code reads it.
func calibrateNodeset() {
	const (
		nTrans = 1600
		minRel = 0.40 // relative support per cell, chess-like
	)
	conformities := []float64{0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95}

	fmt.Printf("# nodeset-vs-tiled crossover, %d categorical rows, minsup %.2f, eclat x1\n",
		nTrans, minRel)
	fmt.Printf("%8s %8s %8s %12s %12s %8s %8s\n",
		"conform", "density", "items", "tiled ms", "nodeset ms", "ratio", "winner")
	densities := make([]float64, len(conformities))
	nodesetWins := make([]bool, len(conformities))
	for i, cf := range conformities {
		rec := syntheticRecoded(int64(100+i), nTrans, cf, minRel)
		densities[i] = fillDensity(rec)
		if len(rec.Items) < 3 {
			fmt.Printf("%8.2f %8.2f %8d %12s %12s %8s %8s\n",
				cf, densities[i], len(rec.Items), "-", "-", "-", "skip")
			continue
		}
		tiledMs := timeMine(rec, vertical.Tiled)
		nodeMs := timeMine(rec, vertical.Nodeset)
		winner := "tiled"
		if nodeMs < tiledMs {
			winner = "nodeset"
			nodesetWins[i] = true
		}
		fmt.Printf("%8.2f %8.2f %8d %12.3f %12.3f %7.2fx %8s\n",
			cf, densities[i], len(rec.Items), tiledMs, nodeMs, nodeMs/tiledMs, winner)
	}

	rec := 0.0
	for i := len(conformities) - 1; i >= 0; i-- {
		if !nodesetWins[i] {
			break
		}
		rec = densities[i]
	}
	if rec == 0 {
		fmt.Println("# nodeset never won contiguously from the top")
	} else {
		fmt.Printf("# recommended nodeset density minimum: %.2f (nodeset wins from this measured density up)\n", rec)
	}
}

// syntheticRecoded builds a deterministic chess-shaped categorical
// database — 30 binary attributes plus two wider ones, two latent
// groups — at the given conformist fraction, and returns it recoded by
// ascending support, as fim.Mine recodes.
func syntheticRecoded(seed int64, nTrans int, conformist, minRel float64) *dataset.Recoded {
	attrs := make([]gen.AttrSpec, 0, 32)
	for i := 0; i < 30; i++ {
		attrs = append(attrs, gen.AttrSpec{Domain: 2})
	}
	attrs = append(attrs, gen.AttrSpec{Domain: 3}, gen.AttrSpec{Domain: 2})
	db := gen.Categorical(gen.CategoricalConfig{
		Name:            "calib",
		Seed:            seed,
		NumTransactions: nTrans,
		Attributes:      attrs,
		NumGroups:       2,
		SharedFrac:      0.6,
		ConformistFrac:  conformist,
		WHi:             0.95,
		WLo:             0.45,
		Spread:          1.5,
		NonConfFactor:   0.5,
	})
	minSup := db.AbsoluteSupport(minRel)
	return db.RecodeOrdered(minSup, dataset.ByFrequency)
}

// fillDensity measures a recoded database's fill ratio: average
// transaction length over the frequent-item universe.
func fillDensity(rec *dataset.Recoded) float64 {
	if len(rec.Items) == 0 || len(rec.DB.Transactions) == 0 {
		return 0
	}
	total := 0
	for _, tr := range rec.DB.Transactions {
		total += tr.Len()
	}
	return float64(total) / float64(len(rec.DB.Transactions)) / float64(len(rec.Items))
}

// timeMine mines rec end to end under kind and returns the best-of-runs
// wall milliseconds, repeating until 80ms of total work (at least twice)
// so fast cells aren't timer noise.
func timeMine(rec *dataset.Recoded, kind vertical.Kind) float64 {
	const minTotal = 80 * time.Millisecond
	best := time.Duration(0)
	var total time.Duration
	for runs := 0; total < minTotal || runs < 2; runs++ {
		start := time.Now()
		mustMine(eclat.Mine(rec, rec.MinSup, core.DefaultOptions(kind, 1)))
		el := time.Since(start)
		if best == 0 || el < best {
			best = el
		}
		total += el
	}
	return float64(best.Nanoseconds()) / 1e6
}
