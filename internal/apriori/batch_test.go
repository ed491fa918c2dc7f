// The prefix-blocked counting loop, which recycles infrequent children
// inside the block that built them, must mine exactly the reference
// miner's itemsets and supports across representations and worker
// counts.
// The tests keep the "Pairwise" names they had when the oracle was the
// per-candidate loop, so their IDs stay stable across history.
package apriori

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/verify"
	"repro/internal/vertical"
)

func TestBatchMatchesPairwise(t *testing.T) {
	rec := classicRecoded(t, 2)
	ref := verify.Reference(rec, 2)
	for _, kind := range vertical.AllKinds() {
		for _, workers := range []int{1, 4} {
			if res := mine(rec, 2, core.DefaultOptions(kind, workers)); !res.Equal(ref) {
				t.Errorf("%v workers=%d vs reference:\n%s",
					kind, workers, verify.Diff(res, ref))
			}
		}
	}
}

func TestQuickBatchMatchesPairwise(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	kinds := vertical.AllKinds()
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := &dataset.DB{Name: "rand"}
		nTrans := 5 + r.Intn(40)
		nItems := 3 + r.Intn(7)
		for i := 0; i < nTrans; i++ {
			var items []itemset.Item
			for it := 0; it < nItems; it++ {
				if r.Intn(3) > 0 {
					items = append(items, itemset.Item(it))
				}
			}
			if len(items) == 0 {
				items = append(items, 0)
			}
			db.Transactions = append(db.Transactions, itemset.New(items...))
		}
		minSup := 1 + r.Intn(nTrans/2+1)
		rec := db.Recode(minSup)
		opt := core.DefaultOptions(kinds[r.Intn(len(kinds))], []int{1, 4}[r.Intn(2)])
		return mine(rec, minSup, opt).Equal(verify.Reference(rec, minSup))
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("batch vs reference: %v", err)
	}
}
