package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	fim "repro"
)

// cell is one fim.Options configuration. Each cell has one end-to-end
// metric, <name>_s. Workers is set by the runner.
type cell struct {
	name string
	opt  fim.Options
}

// cells are the configurations every workload runs: Eclat over every
// vertical representation but nodeset, Apriori over diffset, bitvector
// and nodeset, and the FP-growth baseline. Eclat x nodeset is left out
// because it mines wrong supports or panics nondeterministically at two
// workers.
var cells = []cell{
	{"eclat_tidset", fim.Options{Algorithm: fim.Eclat, Representation: fim.Tidset}},
	{"eclat_bitvector", fim.Options{Algorithm: fim.Eclat, Representation: fim.Bitvector}},
	{"eclat_diffset", fim.Options{Algorithm: fim.Eclat, Representation: fim.Diffset}},
	{"eclat_tiled", fim.Options{Algorithm: fim.Eclat, Representation: fim.Tiled}},
	{"eclat_hybrid", fim.Options{Algorithm: fim.Eclat, Representation: fim.Hybrid}},
	{"apriori_diffset", fim.Options{Algorithm: fim.Apriori, Representation: fim.Diffset}},
	{"apriori_bitvector", fim.Options{Algorithm: fim.Apriori, Representation: fim.Bitvector}},
	{"apriori_nodeset", fim.Options{Algorithm: fim.Apriori, Representation: fim.Nodeset}},
	{"fpgrowth", fim.Options{Algorithm: fim.FPGrowth}},
}

// mine runs one fim.Mine call of cell c with the given team size and
// observer (nil for none).
func (c cell) mine(db *fim.DB, support float64, workers int, o fim.Observer) (*fim.Result, error) {
	opt := c.opt
	opt.Workers = workers
	opt.Observer = o
	return fim.Mine(db, support, opt)
}

// digest is the SHA-256 of the decoded (itemset, support) pairs in
// canonical order: two results with the same digest mined the same
// itemsets with the same supports.
func digest(decoded []fim.ItemsetCount) string {
	h := sha256.New()
	var line []byte
	for _, c := range decoded {
		line = line[:0]
		for i, it := range c.Items {
			if i > 0 {
				line = append(line, ' ')
			}
			line = strconv.AppendUint(line, uint64(it), 10)
		}
		line = append(line, ':')
		line = strconv.AppendInt(line, int64(c.Support), 10)
		line = append(line, '\n')
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verified reports whether a mine finished and mined exactly the
// reference answer.
func verified(res *fim.Result, err error, ref string) bool {
	return err == nil && res != nil && !res.Incomplete && digest(res.Decoded()) == ref
}
