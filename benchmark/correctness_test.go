package main

import (
	"slices"
	"testing"
	"time"

	fim "repro"
	"repro/internal/datasets"
	"repro/internal/itemset"
	"repro/internal/verify"
)

// tinyInput is a 200-row chess input at support 0.5 whose reference
// digest comes from the independent horizontal-scan miner.
func tinyInput(t *testing.T) input {
	t.Helper()
	d, err := datasets.Get("chess")
	if err != nil {
		t.Fatal(err)
	}
	db := d.Build(200.5 / float64(d.PaperTrans))
	if len(db.Transactions) != 200 {
		t.Fatalf("tiny chess has %d rows, want 200", len(db.Transactions))
	}
	const support = 0.5
	rec := db.Recode(db.AbsoluteSupport(support))
	ref := verify.Reference(rec, rec.MinSup)
	return input{name: "tiny", db: db, support: support, ref: digest(ref.Decoded()), refRes: ref}
}

func TestEveryCellMinesTheReference(t *testing.T) {
	in := tinyInput(t)
	if in.refRes.Len() < 10 {
		t.Fatalf("reference has only %d itemsets", in.refRes.Len())
	}
	for _, c := range cells {
		res, err := c.mine(in.db, in.support, 2, nil)
		if !verified(res, err, in.ref) {
			got := ""
			if res != nil {
				got = digest(res.Decoded())
			}
			t.Errorf("%s: digest %s (err %v), reference %s", c.name, got, err, in.ref)
		}
	}
}

func TestDigestSeesContent(t *testing.T) {
	base := []fim.ItemsetCount{
		{Items: itemset.New(1), Support: 9},
		{Items: itemset.New(2), Support: 8},
		{Items: itemset.New(1, 2), Support: 7},
	}
	mutate := func(f func(cs []fim.ItemsetCount)) string {
		cs := slices.Clone(base)
		f(cs)
		return digest(cs)
	}
	d := digest(base)
	if d != mutate(func([]fim.ItemsetCount) {}) {
		t.Fatal("digest is not deterministic")
	}
	if d == mutate(func(cs []fim.ItemsetCount) { cs[2].Support = 6 }) {
		t.Error("changing one support keeps the digest")
	}
	if d == mutate(func(cs []fim.ItemsetCount) { cs[2].Items = itemset.New(1, 3) }) {
		t.Error("swapping one itemset for another keeps the digest")
	}
	if d == mutate(func(cs []fim.ItemsetCount) { cs[0].Support, cs[1].Support = cs[1].Support, cs[0].Support }) {
		t.Error("swapping two supports keeps the digest")
	}
}

// TestFailedMinesAreCountedNotTimed runs a workload with a cell whose
// itemset budget stops every mine: its mines count as failed, it gets no
// timing samples, and the other cell and the run carry on.
func TestFailedMinesAreCountedNotTimed(t *testing.T) {
	good, _ := findCell(cells, "eclat_diffset")
	stop := cell{"budget_stop", fim.Options{Algorithm: fim.Eclat, Representation: fim.Diffset, MaxItemsets: 1}}
	cfg := defaultConfig()
	cfg.cells = []cell{good, stop}
	cfg.size = 200.5 / 3196
	cfg.budget = 200 * time.Millisecond
	cfg.slice = 20 * time.Millisecond
	w, err := workloadByName("chess_deep")
	if err != nil {
		t.Fatal(err)
	}
	wr, err := runWorkload(cfg, w, newSpanLog())
	if err != nil {
		t.Fatal(err)
	}
	if wr.Correct || wr.Failed == 0 || wr.FailedFrac <= 0 || wr.FailedFrac >= 1 {
		t.Errorf("correct %v, %d of %d mines failed (%g); want failures counted",
			wr.Correct, wr.Failed, wr.Attempted, wr.FailedFrac)
	}
	g, s := wr.Cells[0], wr.Cells[1]
	if len(g.Samples) == 0 || g.Failed != 0 {
		t.Errorf("%s: %d samples, %d failed; want samples and no failures", g.Cell, len(g.Samples), g.Failed)
	}
	if len(s.Samples) != 0 || s.Failed == 0 {
		t.Errorf("%s: %d samples, %d failed; want failed samples only", s.Cell, len(s.Samples), s.Failed)
	}
	if v := wr.EndToEnd["eclat_diffset_s"].Value; v <= 0 {
		t.Errorf("eclat_diffset_s = %g after a failing cell", v)
	}
	if _, ok := wr.PerLayer["core.prologue_s.eclat_diffset"]; !ok {
		t.Error("traced phase stopped at the failing cell")
	}
}
