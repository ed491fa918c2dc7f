package fim

import (
	"testing"

	"repro/internal/apriori"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/datasets"
	"repro/internal/eclat"
	"repro/internal/fpgrowth"
	"repro/internal/horizontal"
	"repro/internal/ptrie"
	"repro/internal/verify"
	"repro/internal/vertical"
)

// TestGrandCrossCheck mines the same structured dataset (a small chess
// build — dense, correlated, multi-level) with every engine in the
// repository and asserts they all produce exactly the same frequent
// itemsets with the same supports:
//
//   - Apriori × {tidset, bitvector, diffset, hybrid} × {serial, parallel}
//   - Eclat × {tidset, bitvector, diffset, hybrid} × depths {1,2,3,4}
//   - FP-growth (serial + parallel)
//   - horizontal Apriori × {partial, atomic}
//   - pointer-trie Apriori
//   - the exhaustive reference miner
func TestGrandCrossCheck(t *testing.T) {
	db := datasets.Chess(0.03) // ~96 transactions, still deep
	rec := db.Recode(db.AbsoluteSupport(0.4))
	if len(rec.Items) < 8 {
		t.Fatalf("test dataset too thin: %d items", len(rec.Items))
	}
	ref := verify.Reference(rec, rec.MinSup)
	if ref.Len() < 50 {
		t.Fatalf("test workload too small: %d itemsets", ref.Len())
	}

	check := func(name string, res *core.Result) {
		t.Helper()
		if !res.Equal(ref) {
			t.Errorf("%s disagrees with reference:\n%s", name, verify.Diff(res, ref))
		}
	}

	for _, rep := range vertical.AllKinds() {
		for _, workers := range []int{1, 4} {
			check("apriori/"+rep.String(),
				must(apriori.Mine(rec, rec.MinSup, core.DefaultOptions(rep, workers))))
			for _, depth := range []int{1, 2, 3, 4} {
				opt := core.DefaultOptions(rep, workers)
				opt.EclatDepth = depth
				check("eclat/"+rep.String(), must(eclat.Mine(rec, rec.MinSup, opt)))
			}
		}
	}
	check("fpgrowth/serial", must(fpgrowth.Mine(rec, rec.MinSup, core.DefaultOptions(vertical.Tidset, 1))))
	check("fpgrowth/parallel", must(fpgrowth.Mine(rec, rec.MinSup, core.DefaultOptions(vertical.Tidset, 4))))
	check("horizontal/partial", horizontal.Mine(rec, rec.MinSup, 3, horizontal.Partial, nil))
	check("horizontal/atomic", horizontal.Mine(rec, rec.MinSup, 3, horizontal.Atomic, nil))
	check("ptrie", ptrie.Mine(rec, rec.MinSup, 3))
}

// TestCrossCheckFrequencyOrder repeats the cross-check under
// frequency-ordered recoding, the order every fim.Mine run uses: Apriori
// and Eclat over every representation and FP-growth must agree there
// too, and the decoded result must match the code-ordered run.
func TestCrossCheckFrequencyOrder(t *testing.T) {
	db := datasets.Mushroom(0.02)
	minSup := db.AbsoluteSupport(0.4)
	byCode := db.Recode(minSup)
	byFreq := db.RecodeOrdered(minSup, dataset.ByFrequency)
	refCode := verify.Reference(byCode, minSup)
	refFreq := verify.Reference(byFreq, minSup)
	check := func(name string, res *core.Result) {
		t.Helper()
		if !res.Equal(refFreq) {
			t.Errorf("%s under frequency order:\n%s", name, verify.Diff(res, refFreq))
		}
	}
	for _, rep := range vertical.AllKinds() {
		check("apriori/"+rep.String(), must(apriori.Mine(byFreq, minSup, core.DefaultOptions(rep, 2))))
		check("eclat/"+rep.String(), must(eclat.Mine(byFreq, minSup, core.DefaultOptions(rep, 2))))
	}
	check("fpgrowth/serial", must(fpgrowth.Mine(byFreq, minSup, core.DefaultOptions(vertical.Tidset, 1))))
	check("fpgrowth/parallel", must(fpgrowth.Mine(byFreq, minSup, core.DefaultOptions(vertical.Tidset, 2))))
	// Decoded views agree across orders.
	a := refCode.Decoded()
	b := refFreq.Decoded()
	if len(a) != len(b) {
		t.Fatalf("decoded counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Items.Equal(b[i].Items) || a[i].Support != b[i].Support {
			t.Errorf("decoded mismatch at %d: %v/%d vs %v/%d",
				i, a[i].Items, a[i].Support, b[i].Items, b[i].Support)
		}
	}
}

// must unwraps a miner's (result, error) pair; the cross-checks run
// without budgets, so an error fails the run immediately.
func must(res *core.Result, err error) *core.Result {
	if err != nil {
		panic(err)
	}
	return res
}
