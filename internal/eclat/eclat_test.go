package eclat

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

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

func TestMineClassicExample(t *testing.T) {
	rec := classicRecoded(t, 2)
	res := mine(rec, 2, core.DefaultOptions(vertical.Tidset, 1))
	ref := verify.Reference(rec, 2)
	if !res.Equal(ref) {
		t.Fatalf("eclat disagrees with reference:\n%s", verify.Diff(res, ref))
	}
	if res.MaxK != 3 || res.Len() != 13 {
		t.Errorf("MaxK=%d Len=%d, want 3, 13", res.MaxK, res.Len())
	}
}

func TestMineAllRepresentationsAgree(t *testing.T) {
	rec := classicRecoded(t, 2)
	ref := verify.Reference(rec, 2)
	for _, kind := range vertical.AllKinds() {
		res := mine(rec, 2, core.DefaultOptions(kind, 1))
		if !res.Equal(ref) {
			t.Errorf("%v disagrees with reference:\n%s", kind, verify.Diff(res, ref))
		}
	}
}

func TestMineParallelMatchesSerial(t *testing.T) {
	rec := classicRecoded(t, 2)
	serial := mine(rec, 2, core.DefaultOptions(vertical.Diffset, 1))
	for _, workers := range []int{2, 3, 8, 64} {
		for _, schedule := range []sched.Schedule{
			{Policy: sched.Dynamic, Chunk: 1}, {Policy: sched.Static}, {Policy: sched.Guided},
		} {
			for _, kind := range vertical.Kinds() {
				opt := core.DefaultOptions(kind, workers)
				opt.Schedule = &schedule
				res := mine(rec, 2, opt)
				if !res.Equal(serial) {
					t.Errorf("workers=%d %v %v disagrees with serial:\n%s",
						workers, schedule, kind, verify.Diff(res, serial))
				}
			}
		}
	}
}

func TestMineEdgeCases(t *testing.T) {
	// No frequent items.
	db, _ := dataset.ReadFIMI("t", strings.NewReader("1 2\n3 4\n"))
	rec := db.Recode(2)
	res := mine(rec, 2, core.DefaultOptions(vertical.Tidset, 2))
	if res.Len() != 0 {
		t.Errorf("found %d itemsets", res.Len())
	}
	// Single frequent item: just the 1-itemset.
	db2, _ := dataset.ReadFIMI("t", strings.NewReader("1\n1\n1 2\n"))
	rec2 := db2.Recode(2)
	res2 := mine(rec2, 2, core.DefaultOptions(vertical.Diffset, 4))
	if res2.Len() != 1 || res2.MaxK != 1 {
		t.Errorf("Len=%d MaxK=%d, want 1, 1", res2.Len(), res2.MaxK)
	}
	// Everything identical: full lattice.
	db3, _ := dataset.ReadFIMI("t", strings.NewReader("1 2 3 4\n1 2 3 4\n"))
	rec3 := db3.Recode(2)
	res3 := mine(rec3, 2, core.DefaultOptions(vertical.Bitvector, 3))
	if res3.Len() != 15 { // 2^4 - 1
		t.Errorf("full lattice: %d itemsets, want 15", res3.Len())
	}
	// Empty database.
	rec4 := (&dataset.DB{}).Recode(1)
	if got := mine(rec4, 1, core.DefaultOptions(vertical.Tidset, 2)); got.Len() != 0 {
		t.Errorf("empty DB produced %d itemsets", got.Len())
	}
}

func TestEclatMatchesApriorisBehaviourDeepLattice(t *testing.T) {
	// A database with a deep frequent lattice (7 items always together)
	// exercises the recursion well beyond level 2.
	var sb strings.Builder
	for i := 0; i < 5; i++ {
		sb.WriteString("1 2 3 4 5 6 7\n")
	}
	sb.WriteString("1 2\n")
	db, _ := dataset.ReadFIMI("deep", strings.NewReader(sb.String()))
	rec := db.Recode(5)
	res := mine(rec, 5, core.DefaultOptions(vertical.Diffset, 3))
	if res.Len() != 127 { // 2^7 - 1 subsets
		t.Errorf("deep lattice: %d itemsets, want 127", res.Len())
	}
	for _, c := range res.Counts {
		if len(c.Items) == 7 && c.Support != 5 {
			t.Errorf("7-itemset support = %d, want 5", c.Support)
		}
	}
}

func TestCollectorPhaseDepth1(t *testing.T) {
	rec := classicRecoded(t, 2)
	trace := &sched.Record{}
	opt := core.DefaultOptions(vertical.Tidset, 2)
	opt.Record = trace
	opt.EclatDepth = 1
	mine(rec, 2, opt)
	if len(trace.Loops) != 2 || trace.Loops[0].Name != "vertical/roots" {
		t.Fatalf("recorded %d phases, want the root build and one more", len(trace.Loops))
	}
	if roots := trace.Loops[0]; roots.Load == nil || roots.Model == nil || roots.Model.TotalWork() == 0 {
		t.Errorf("roots: load %+v, model %+v; want both halves", roots.Load, roots.Model)
	}
	// Depth 1 is the subtree stage over one class holding every root:
	// one task per root with a later sibling, so n−1 tasks.
	l := trace.Loops[1]
	if l.Name != "eclat/subtrees" || l.Schedule.Policy != sched.Dynamic {
		t.Errorf("phase = %q %v", l.Name, l.Schedule)
	}
	want := len(rec.Items) - 1
	if l.Load == nil || l.Load.N != want || l.Load.TotalTasks() != int64(l.Load.N) {
		t.Errorf("measured half = %+v, want %d tasks", l.Load, want)
	}
	p := l.Model
	if p.Tasks() != want {
		t.Errorf("tasks = %d, want %d", p.Tasks(), want)
	}
	// Eclat's remote traffic is only the first-level reads, so it must
	// be well below total work on this deep dataset.
	if p.TotalRemote() >= p.TotalWork() {
		t.Error("eclat remote not below total work")
	}
	// Every task joins at least one later sibling: none is empty.
	for i, w := range p.Work {
		if w == 0 {
			t.Errorf("task %d recorded no work", i)
		}
	}
	// The one class is the roots, so its shared payload is theirs.
	if rootBytes := vertical.NodesBytes(vertical.New(vertical.Tidset).Roots(rec)); p.UniqueParent != rootBytes {
		t.Errorf("UniqueParent = %d, want the root bytes %d", p.UniqueParent, rootBytes)
	}
}

// TestCollectorPhasesDepth2: on the classic tidsets the cost rule
// counts the pairs, so the pair count (dataset/pairs, both halves) runs
// between the root build and the pair stage, and the pair stage has
// one task per frequent pair instead of one per root pair.
func TestCollectorPhasesDepth2(t *testing.T) {
	rec := classicRecoded(t, 2)
	trace := &sched.Record{}
	opt := core.DefaultOptions(vertical.Tidset, 2)
	opt.Record = trace
	opt.EclatDepth = 2
	res := mine(rec, 2, opt)
	var names []string
	for _, l := range trace.Loops {
		names = append(names, l.Name)
	}
	if want := []string{"vertical/roots", "dataset/pairs", "eclat/pairs", "eclat/subtrees"}; !slices.Equal(names, want) {
		t.Fatalf("phases = %q, want %q", names, want)
	}
	count, pairs, subs := trace.Loops[1], trace.Loops[2].Model, trace.Loops[3].Model
	if count.Load == nil || count.Model == nil || count.Model.TotalWork() == 0 {
		t.Errorf("pair count: load %+v, model %+v; want both halves", count.Load, count.Model)
	}
	frequentPairs := 0
	for _, c := range res.Counts {
		if len(c.Items) == 2 {
			frequentPairs++
		}
	}
	if pairs.Tasks() != frequentPairs {
		t.Errorf("pair tasks = %d, want the %d frequent pairs", pairs.Tasks(), frequentPairs)
	}
	if pairs.TotalWork() == 0 {
		t.Error("no pair work recorded")
	}
	if pairs.UniqueParent == 0 || subs.UniqueParent == 0 {
		t.Error("UniqueParent not recorded")
	}
}

func TestCollectorPhasesDefaultDepth(t *testing.T) {
	rec := classicRecoded(t, 2)
	trace := &sched.Record{}
	opt := core.DefaultOptions(vertical.Tidset, 2)
	opt.Record = trace
	mine(rec, 2, opt)
	// Default depth 4: the root build, the pair count, pairs, expand3,
	// expand4, subtrees.
	want := []string{"vertical/roots", "dataset/pairs", "eclat/pairs", "eclat/expand3", "eclat/expand4", "eclat/subtrees"}
	if len(trace.Loops) != len(want) {
		t.Fatalf("recorded %d phases, want %d", len(trace.Loops), len(want))
	}
	for i, name := range want {
		if trace.Loops[i].Name != name {
			t.Errorf("phase %d = %q, want %q", i, trace.Loops[i].Name, name)
		}
	}
}

func TestAllDepthsAgree(t *testing.T) {
	rec := classicRecoded(t, 2)
	for _, kind := range vertical.Kinds() {
		var results []*core.Result
		for _, depth := range []int{1, 2, 3, 4, 8} {
			opt := core.DefaultOptions(kind, 3)
			opt.EclatDepth = depth
			results = append(results, mine(rec, 2, opt))
		}
		for i := 1; i < len(results); i++ {
			if !results[0].Equal(results[i]) {
				t.Errorf("%v: depth variants disagree:\n%s", kind, verify.Diff(results[0], results[i]))
			}
		}
	}
}

// Property: Eclat agrees with the reference on random databases for all
// representations and worker counts.
func TestQuickAgainstReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
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
		kind := vertical.Kinds()[r.Intn(3)]
		workers := []int{1, 4}[r.Intn(2)]
		opt := core.DefaultOptions(kind, workers)
		opt.EclatDepth = 1 + r.Intn(4)
		res := mine(rec, minSup, opt)
		return res.Equal(ref)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("eclat vs reference: %v", err)
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
