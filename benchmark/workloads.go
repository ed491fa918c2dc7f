package main

import (
	"bytes"
	"fmt"
	"math/rand"

	fim "repro"
	"repro/internal/datasets"
)

// workload is one benchmark input: a synthetic dataset of internal/datasets
// at a fixed size, mined at a fixed relative support.
type workload struct {
	name    string
	dataset string  // internal/datasets name
	scale   float64 // fraction of the dataset's published row count
	support float64
	// itemsets and maxK are the seed-0 answer at full size; a seed-0 run
	// whose reference miners disagree with them exits non-zero.
	itemsets int
	maxK     int
	why      string
}

// The four workloads vary the properties the miners' costs depend on:
// lattice depth, item count, row count, and payload size relative to the
// L2 cache.
var workloads = []workload{
	{name: "chess_deep", dataset: "chess", scale: 1, support: 0.30, itemsets: 6018, maxK: 7,
		why: "deep lattice over cache-resident payloads: Eclat recursion, combine kernels, arena and scheduling do the work; recode takes milliseconds"},
	{name: "t40_wide", dataset: "T40I10D100K", scale: 0.05, support: 0.04, itemsets: 728, maxK: 3,
		why: "sparse and wide: 333 frequent items, 55k level-2 pairs, under 1% of candidates frequent; candidate counting and diffset blow-up dominate"},
	{name: "accidents_tall", dataset: "accidents", scale: 0.5, support: 0.20, itemsets: 31, maxK: 2,
		why: "tall and shallow: recode and the root payload build dominate, the levels take milliseconds; kernel changes should not move it"},
	{name: "pumsb_long", dataset: "pumsb", scale: 1, support: 0.70, itemsets: 723, maxK: 5,
		why: "long payloads beyond L2 (5.7 MB of root tidsets): flat kernels are bandwidth-bound, bitvector and tiled are half recode"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rows returns the row count datasets.Def.Build gives at scale s.
func rows(d datasets.Def, s float64) int {
	return max(64, int(float64(d.PaperTrans)*s))
}

// replaced is the share of the canonical rows another seed than 0
// replaces.
const replaced = 1.0 / 16

// generate returns the workload's input at the given size factor as FIMI
// text. The generator's row stream is seeded canonically, so the first
// rows of a larger build equal a smaller build. Seed 0 takes the first n
// rows, which is exactly datasets.Get(dataset).Build(scale). Any other
// seed replaces a seeded random sixteenth of them with seeded picks from
// the next n/4 rows of the stream. Every seed thus draws from the same
// population (one lattice structure), and seeds differ by a little
// sampling noise in the supports, so the work a mine does stays nearly
// the same and the spread of a timing over seeds is the host's. Reseeding
// the generator itself would change the structure: chess@0.30 ranges from
// 3,771 to 9,308 itemsets over generator seeds 0-7.
func (w workload) generate(seed int64, size float64) ([]byte, error) {
	d, err := datasets.Get(w.dataset)
	if err != nil {
		return nil, err
	}
	s := w.scale * size
	var db *fim.DB
	if seed == 0 {
		db = d.Build(s)
	} else {
		db = d.Build(1.25 * s)
		n := rows(d, s)
		extra := db.Transactions[n:]
		db.Transactions = db.Transactions[:n]
		k := min(int(float64(n)*replaced), len(extra))
		rng := rand.New(rand.NewSource(seed))
		picks := rng.Perm(len(extra))
		for i, p := range rng.Perm(n)[:k] {
			db.Transactions[p] = extra[picks[i]]
		}
	}
	var buf bytes.Buffer
	if err := fim.WriteFIMI(&buf, db); err != nil {
		return nil, fmt.Errorf("write %s input: %w", w.name, err)
	}
	return buf.Bytes(), nil
}
