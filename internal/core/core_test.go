package core

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/vertical"
)

func TestAlgorithmString(t *testing.T) {
	cases := map[Algorithm]string{Apriori: "apriori", Eclat: "eclat", FPGrowth: "fpgrowth"}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
		got, err := ParseAlgorithm(want)
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", want, got, err)
		}
	}
	if Algorithm(9).String() != "Algorithm(9)" {
		t.Error("unknown algorithm string")
	}
	if _, err := ParseAlgorithm("dfs"); err == nil {
		t.Error("ParseAlgorithm accepted unknown name")
	}
}

func TestDefaultOptions(t *testing.T) {
	opt := DefaultOptions(vertical.Diffset, 8)
	if opt.Representation != vertical.Diffset || opt.Workers != 8 {
		t.Errorf("DefaultOptions = %+v", opt)
	}
	if opt.Schedule != nil {
		t.Error("DefaultOptions should not force a schedule")
	}
}

func testResult(t *testing.T) *Result {
	t.Helper()
	db, err := dataset.ReadFIMI("t", strings.NewReader("1 2\n1 2\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	rec := db.Recode(1)
	return &Result{
		Algorithm: Eclat,
		MinSup:    1,
		Rec:       rec,
		MaxK:      2,
		Counts: []ItemsetCount{
			{Items: itemset.New(1), Support: 3},
			{Items: itemset.New(0, 1), Support: 2},
			{Items: itemset.New(0), Support: 2},
			{Items: itemset.New(2), Support: 1},
		},
	}
}

func TestResultSortedIsCanonical(t *testing.T) {
	res := testResult(t)
	sorted := res.Sorted()
	want := []itemset.Itemset{itemset.New(0), itemset.New(0, 1), itemset.New(1), itemset.New(2)}
	for i := range want {
		if !sorted[i].Items.Equal(want[i]) {
			t.Errorf("sorted[%d] = %v, want %v", i, sorted[i].Items, want[i])
		}
	}
	// Sorted must not mutate the original order.
	if !res.Counts[0].Items.Equal(itemset.New(1)) {
		t.Error("Sorted mutated Counts")
	}
}

func TestResultDecoded(t *testing.T) {
	res := testResult(t)
	dec := res.Decoded()
	// dense 0,1,2 -> original 1,2,3
	if !dec[0].Items.Equal(itemset.New(1)) {
		t.Errorf("decoded[0] = %v", dec[0].Items)
	}
	if !dec[1].Items.Equal(itemset.New(1, 2)) {
		t.Errorf("decoded[1] = %v", dec[1].Items)
	}
}

func TestResultByKeyAndEqual(t *testing.T) {
	res := testResult(t)
	m := res.ByKey()
	if m[itemset.New(0, 1).Key()] != 2 {
		t.Error("ByKey lookup failed")
	}
	other := &Result{Counts: append([]ItemsetCount(nil), res.Counts...), Rec: res.Rec}
	// Shuffle order: equality must ignore order.
	other.Counts[0], other.Counts[3] = other.Counts[3], other.Counts[0]
	if !res.Equal(other) {
		t.Error("order-shuffled results not equal")
	}
	// Different support breaks equality.
	other.Counts[1].Support++
	if res.Equal(other) {
		t.Error("support mismatch not detected")
	}
	other.Counts[1].Support--
	// Missing itemset breaks equality.
	other.Counts = other.Counts[:3]
	if res.Equal(other) {
		t.Error("length mismatch not detected")
	}
}
