package vertical

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/itemset"
)

func TestHybridKindPlumbing(t *testing.T) {
	if Hybrid.String() != "hybrid" {
		t.Error("Hybrid name")
	}
	k, err := ParseKind("hybrid")
	if err != nil || k != Hybrid {
		t.Error("ParseKind(hybrid)")
	}
	if New(Hybrid).Kind() != Hybrid {
		t.Error("New(Hybrid).Kind")
	}
	if len(AllKinds()) != 6 {
		t.Error("AllKinds length")
	}
	// Kinds stays the paper's three.
	if len(Kinds()) != 3 {
		t.Error("Kinds length")
	}
}

func TestHybridRootsAreTidsets(t *testing.T) {
	rec := exampleRecoded(t, 1)
	for _, n := range New(Hybrid).Roots(rec) {
		if n.(*HybridNode).IsDiffset() {
			t.Error("hybrid root stored as diffset")
		}
	}
}

// TestHybridAgreesWithTidset: the hybrid representation must compute the
// supports of the tidsets scanned from the rows over arbitrary combine
// trees, and store either t(X) or d(X) exactly, whichever form each node
// happens to take.
func TestHybridAgreesWithTidset(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := &dataset.DB{Name: "rand"}
		nTrans := 10 + r.Intn(50)
		nItems := 4 + r.Intn(5)
		for i := 0; i < nTrans; i++ {
			var items []itemset.Item
			for it := 0; it < nItems; it++ {
				// Dense-ish data so the diffset branch triggers often.
				if r.Intn(4) > 0 {
					items = append(items, itemset.Item(it))
				}
			}
			if len(items) == 0 {
				items = append(items, 0)
			}
			db.Transactions = append(db.Transactions, itemset.New(items...))
		}
		rec := db.Recode(1)
		h := New(Hybrid)
		hr := h.Roots(rec)
		if len(rec.Items) < 4 {
			return true
		}
		// Chain: combine siblings at three levels. Level 2: (0,1), (0,2),
		// (0,3); level 3 under (0,1): (0,1,2), (0,1,3); level 4: (0,1,2,3).
		l2 := combineBlock(h, nil, hr[0], hr[1:4])
		l3 := combineBlock(h, nil, l2[0], l2[1:])
		l4 := combineBlock(h, nil, l3[0], l3[1:])
		for k, n := range l2 {
			checkNode(t, "level 2", rec, []int{0, 1 + k}, n, 0)
		}
		for k, n := range l3 {
			checkNode(t, "level 3", rec, []int{0, 1, 2 + k}, n, 0)
		}
		checkNode(t, "level 4", rec, []int{0, 1, 2, 3}, l4[0], 0)
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("hybrid vs tidset: %v", err)
	}
}

// TestHybridSwitchesOnDenseData: on highly correlated data, combines must
// actually produce diffset-form nodes (otherwise the hybrid is pointless)
// and the stored form must always be the smaller one in the t,t case.
func TestHybridSwitchesOnDenseData(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		sb.WriteString("1 2 3\n")
	}
	sb.WriteString("1 2\n1 3\n")
	db, err := dataset.ReadFIMI("dense", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	rec := db.Recode(1)
	h := New(Hybrid)
	roots := h.Roots(rec)
	// {1,2} has support 21 of 22; t(1)=22, diffset rel {1} = 1 element.
	n12 := combineBlock(h, nil, roots[0], roots[1:2])[0].(*HybridNode)
	if !n12.IsDiffset() {
		t.Error("dense combine did not switch to diffset")
	}
	if n12.Support() != 21 {
		t.Errorf("support = %d, want 21", n12.Support())
	}
	if n12.Bytes() != 4 { // one tid in the diffset
		t.Errorf("diffset bytes = %d, want 4", n12.Bytes())
	}
}

// TestHybridSmallerThanBothOnDenseData: over a dense run, hybrid's total
// payload must be no larger than pure tidset and pure diffset.
func TestHybridFootprint(t *testing.T) {
	var sb strings.Builder
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		for it := 1; it <= 6; it++ {
			if r.Intn(10) > 0 {
				sb.WriteString(" ")
				sb.WriteByte(byte('0' + it))
			}
		}
		sb.WriteString("\n")
	}
	db, err := dataset.ReadFIMI("dense", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	rec := db.Recode(1)
	totalBytes := func(kind Kind) int {
		rep := New(kind)
		roots := rep.Roots(rec)
		total := 0
		// Sum over all sibling pair-and-triple combines under item 0.
		pairs := combineBlock(rep, nil, roots[0], roots[1:])
		for _, n := range append(pairs, combineBlock(rep, nil, pairs[0], pairs[1:])...) {
			total += n.Bytes()
		}
		return total
	}
	hybrid := totalBytes(Hybrid)
	tid := totalBytes(Tidset)
	diff := totalBytes(Diffset)
	if hybrid > tid || hybrid > diff {
		t.Errorf("hybrid payload %d exceeds tidset %d or diffset %d", hybrid, tid, diff)
	}
}
