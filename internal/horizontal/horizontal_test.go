package horizontal

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/apriori"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/sched"
	"repro/internal/verify"
	"repro/internal/vertical"
)

const classic = `1 2 5
2 4
2 3
1 2 4
1 3
2 3
1 3
1 2 3 5
1 2 3
`

func classicRecoded(t *testing.T, minSup int) *dataset.Recoded {
	t.Helper()
	db, err := dataset.ReadFIMI("classic", strings.NewReader(classic))
	if err != nil {
		t.Fatal(err)
	}
	return db.Recode(minSup)
}

func TestMineMatchesReference(t *testing.T) {
	rec := classicRecoded(t, 2)
	ref := verify.Reference(rec, 2)
	for _, mode := range []Counting{Partial, Atomic} {
		for _, workers := range []int{1, 2, 7} {
			res := Mine(rec, 2, workers, mode, nil)
			if !res.Equal(ref) {
				t.Errorf("%v workers=%d:\n%s", mode, workers, verify.Diff(res, ref))
			}
		}
	}
}

func TestMineMatchesVerticalApriori(t *testing.T) {
	rec := classicRecoded(t, 2)
	vert := must(apriori.Mine(rec, 2, core.DefaultOptions(vertical.Tidset, 2)))
	hor := Mine(rec, 2, 2, Partial, nil)
	if !hor.Equal(vert) {
		t.Errorf("horizontal vs vertical:\n%s", verify.Diff(hor, vert))
	}
}

func TestCountingString(t *testing.T) {
	if Partial.String() != "partial" || Atomic.String() != "atomic" {
		t.Error("Counting.String mismatch")
	}
	if Counting(7).String() != "Counting(7)" {
		t.Error("unknown counting string")
	}
}

func TestInstrumentationShapes(t *testing.T) {
	rec := classicRecoded(t, 2)
	colP, colA := &sched.Record{}, &sched.Record{}
	Mine(rec, 2, 2, Partial, colP)
	Mine(rec, 2, 2, Atomic, colA)
	if len(colP.Loops) == 0 || len(colA.Loops) == 0 {
		t.Fatal("no phases recorded")
	}
	// Tasks per phase = transactions.
	if colP.Loops[0].Model.Tasks() != rec.DB.NumTransactions() {
		t.Errorf("tasks = %d", colP.Loops[0].Model.Tasks())
	}
	// Atomic counting bounces counter cache lines: remote traffic that
	// the partial-counter version does not pay.
	if colA.TotalRemote() <= colP.TotalRemote() {
		t.Errorf("atomic remote %d not above partial %d", colA.TotalRemote(), colP.TotalRemote())
	}
	if colP.TotalRemote() != 0 {
		t.Errorf("partial counting recorded remote traffic %d", colP.TotalRemote())
	}
}

// A5 precondition: on the classic example, horizontal counting touches
// far more bytes than vertical Apriori — the paper's §II-B argument for
// vertical layouts.
func TestHorizontalScansMoreThanVertical(t *testing.T) {
	rec := classicRecoded(t, 2)
	colH, colV := &sched.Record{}, &sched.Record{}
	Mine(rec, 2, 1, Partial, colH)
	opt := core.DefaultOptions(vertical.Tidset, 1)
	opt.Record = colV
	must(apriori.Mine(rec, 2, opt))
	if colH.TotalWork() <= colV.TotalWork() {
		t.Errorf("horizontal work %d not above vertical %d", colH.TotalWork(), colV.TotalWork())
	}
}

func TestMineEdgeCases(t *testing.T) {
	rec := (&dataset.DB{}).Recode(1)
	if res := Mine(rec, 1, 2, Partial, nil); res.Len() != 0 {
		t.Errorf("empty DB: %d itemsets", res.Len())
	}
	db, _ := dataset.ReadFIMI("t", strings.NewReader("1 2 3\n"))
	rec2 := db.Recode(1)
	if res := Mine(rec2, 1, 3, Atomic, nil); res.Len() != 7 {
		t.Errorf("single transaction: %d itemsets", res.Len())
	}
	if res := Mine(rec2, 0, 1, Partial, nil); res.MinSup != 1 {
		t.Errorf("MinSup = %d", res.MinSup)
	}
}

func TestQuickAgainstReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := &dataset.DB{Name: "rand"}
		nTrans := 5 + r.Intn(30)
		nItems := 3 + r.Intn(6)
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
		ref := verify.Reference(rec, minSup)
		mode := []Counting{Partial, Atomic}[r.Intn(2)]
		workers := 1 + r.Intn(4)
		return Mine(rec, minSup, workers, mode, nil).Equal(ref)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("horizontal vs reference: %v", err)
	}
}

// must unwraps the vertical miner's (result, error) pair.
func must(res *core.Result, err error) *core.Result {
	if err != nil {
		panic(err)
	}
	return res
}
