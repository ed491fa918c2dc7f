package fpgrowth

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/apriori"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/datasets"
	"repro/internal/eclat"
	"repro/internal/itemset"
	"repro/internal/nodeset"
	"repro/internal/runctl"
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

func TestMineClassicExample(t *testing.T) {
	rec := classicRecoded(t, 2)
	res := mine(rec, 2, core.DefaultOptions(vertical.Tidset, 1))
	ref := verify.Reference(rec, 2)
	if !res.Equal(ref) {
		t.Fatalf("fpgrowth disagrees with reference:\n%s", verify.Diff(res, ref))
	}
	if res.Algorithm != core.FPGrowth {
		t.Errorf("Algorithm = %v", res.Algorithm)
	}
}

func TestMineAgreesWithVerticalMiners(t *testing.T) {
	rec := classicRecoded(t, 2)
	fp := mine(rec, 2, core.DefaultOptions(vertical.Tidset, 1))
	ap := must(apriori.Mine(rec, 2, core.DefaultOptions(vertical.Diffset, 2)))
	ec := must(eclat.Mine(rec, 2, core.DefaultOptions(vertical.Bitvector, 2)))
	if !fp.Equal(ap) {
		t.Errorf("fpgrowth vs apriori:\n%s", verify.Diff(fp, ap))
	}
	if !fp.Equal(ec) {
		t.Errorf("fpgrowth vs eclat:\n%s", verify.Diff(fp, ec))
	}
}

func TestMineEdgeCases(t *testing.T) {
	// Empty database.
	rec := (&dataset.DB{}).Recode(1)
	if res := mine(rec, 1, core.DefaultOptions(vertical.Tidset, 1)); res.Len() != 0 {
		t.Errorf("empty DB produced %d itemsets", res.Len())
	}
	// Single transaction: full powerset.
	db, _ := dataset.ReadFIMI("t", strings.NewReader("3 1 2\n"))
	rec2 := db.Recode(1)
	res := mine(rec2, 1, core.DefaultOptions(vertical.Tidset, 1))
	if res.Len() != 7 {
		t.Errorf("single transaction: %d itemsets, want 7", res.Len())
	}
	// Duplicate transactions exercise path-count accumulation.
	db2, _ := dataset.ReadFIMI("t", strings.NewReader("1 2\n1 2\n1 2\n2 3\n"))
	rec3 := db2.Recode(2)
	res2 := mine(rec3, 2, core.DefaultOptions(vertical.Tidset, 1))
	ref := verify.Reference(rec3, 2)
	if !res2.Equal(ref) {
		t.Errorf("duplicate paths:\n%s", verify.Diff(res2, ref))
	}
}

func TestDeepLattice(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 4; i++ {
		sb.WriteString("1 2 3 4 5 6\n")
	}
	db, _ := dataset.ReadFIMI("deep", strings.NewReader(sb.String()))
	rec := db.Recode(4)
	res := mine(rec, 4, core.DefaultOptions(vertical.Tidset, 1))
	if res.Len() != 63 { // 2^6 - 1
		t.Errorf("deep lattice: %d itemsets, want 63", res.Len())
	}
	if res.MaxK != 6 {
		t.Errorf("MaxK = %d", res.MaxK)
	}
}

// Property: FP-growth agrees with the reference on random databases.
func TestQuickAgainstReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
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
		ref := verify.Reference(rec, minSup)
		res := mine(rec, minSup, core.DefaultOptions(vertical.Tidset, 1))
		return res.Equal(ref)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("fpgrowth vs reference: %v", err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rec := classicRecoded(t, 2)
	serial := mine(rec, 2, core.DefaultOptions(vertical.Tidset, 1))
	for _, workers := range []int{2, 4, 16} {
		res := mine(rec, 2, core.DefaultOptions(vertical.Tidset, workers))
		if !res.Equal(serial) {
			t.Errorf("workers=%d disagrees with serial:\n%s", workers, verify.Diff(res, serial))
		}
	}
}

func TestCollectorPhase(t *testing.T) {
	rec := classicRecoded(t, 2)
	trace := &sched.Record{}
	opt := core.DefaultOptions(vertical.Tidset, 2)
	opt.Record = trace
	mine(rec, 2, opt)
	if len(trace.Loops) != 2 || trace.Loops[0].Name != "fpgrowth/tree" || trace.Loops[1].Name != "fpgrowth/items" {
		t.Fatalf("loops = %v, want fpgrowth/tree then fpgrowth/items", trace.Loops)
	}
	if tree := trace.Loops[0]; tree.Load == nil || tree.Model == nil || tree.Model.TotalWork() == 0 {
		t.Errorf("tree: load %+v, model %+v; want both halves", tree.Load, tree.Model)
	}
	l := trace.Loops[1]
	if l.Model.Tasks() != len(rec.Items) || l.Load.N != len(rec.Items) {
		t.Errorf("tasks = %d modelled, %d measured", l.Model.Tasks(), l.Load.N)
	}
	if l.Model.Shared {
		t.Error("fpgrowth tasks marked shared (conditional trees are private)")
	}
}

// TestChunkTreesChargedAsHeld: each chunk tree is trimmed once built,
// so it keeps no more slack through the header loop than the allocator
// rounds its slab up by (under a page), and the budget holds exactly
// the sum of what the trees hold.
func TestChunkTreesChargedAsHeld(t *testing.T) {
	db := datasets.Chess(0.2)
	rec, err := db.RecodeOn(dataset.Pass{Team: sched.NewTeam(3)}, db.AbsoluteSupport(0.5), dataset.ByFrequency)
	if err != nil {
		t.Fatal(err)
	}
	rc := runctl.New(context.Background(), runctl.Budget{MaxMemoryBytes: 1 << 30})
	defer rc.Close()
	trees, err := buildTrees(rec, dataset.Pass{Team: sched.NewTeam(3), Control: rc})
	if err != nil {
		t.Fatal(err)
	}
	var held int64
	for c, tr := range trees {
		if slack := (cap(tr.Nodes) - len(tr.Nodes)) * nodeset.TreeNodeBytes; slack >= 8192 || tr.NNodes() == 0 {
			t.Errorf("chunk %d: %d nodes in a slab of %d", c, len(tr.Nodes), cap(tr.Nodes))
		}
		held += tr.Bytes()
	}
	if len(trees) != 3 || rc.MemUsed() != held {
		t.Fatalf("%d chunk trees charged %d bytes, they hold %d", len(trees), rc.MemUsed(), held)
	}
}

// mine wraps Mine for the test call sites that expect an error-free
// run: no budget or cancellation is in play, so an error is a failure.
func mine(rec *dataset.Recoded, minSup int, opt core.Options) *core.Result {
	res, err := Mine(rec, minSup, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// must unwraps a cross-package miner's (result, error) pair.
func must(res *core.Result, err error) *core.Result {
	if err != nil {
		panic(err)
	}
	return res
}
