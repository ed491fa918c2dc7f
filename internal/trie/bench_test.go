package trie

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/datasets"
	"repro/internal/eclat"
	"repro/internal/sched"
	"repro/internal/vertical"
)

// minedTrie recodes db at the relative support by ascending support, as
// fim.Mine does, on team, and commits levels 2..top with exactly the
// frequent itemsets an Eclat run finds.
func minedTrie(b *testing.B, db *dataset.DB, support float64, top int, team *sched.Team) *Trie {
	b.Helper()
	minSup := db.AbsoluteSupport(support)
	rec, err := db.RecodeOn(dataset.Pass{Team: team}, minSup, dataset.ByFrequency)
	if err != nil {
		b.Fatal(err)
	}
	res, err := eclat.Mine(rec, minSup, core.Options{Representation: vertical.Bitvector})
	if err != nil {
		b.Fatal(err)
	}
	frequent := make(map[string]int, len(res.Counts))
	for _, c := range res.Counts {
		frequent[c.Items.Key()] = c.Support
	}
	tr := NewRoot(rec.Items)
	for k := 2; k <= top; k++ {
		c := tr.Generate()
		for i := 0; i < c.Len(); i++ {
			full := tr.ItemsetOf(k-1, c.Level.Parents[i]).Extend(c.Level.Items[i])
			c.Level.Supports[i] = frequent[full.Key()]
		}
		tr.Commit(c, minSup)
	}
	return tr
}

// BenchmarkPrune times the subset check of Apriori's apriori/prune4
// loop: the level-4 candidates of the chess generator at 30% support,
// on a team of two under Apriori's static schedule.
func BenchmarkPrune(b *testing.B) {
	team := sched.NewTeam(2)
	tr := minedTrie(b, datasets.Chess(1), 0.30, 3, team)
	s := sched.Schedule{Policy: sched.Static}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := tr.Generate()
		b.StartTimer()
		if _, err := tr.Prune(c, team, nil, s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// generated keeps BenchmarkGenerate's result live.
var generated *Candidates

// BenchmarkGenerate times candidate generation on the coordinator:
// chess@0.30's level 4 (the candidates BenchmarkPrune checks) and the
// root pairs of T40I10D100K at scale 0.05 and 4% support, the
// benchmark's t40_wide workload.
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name    string
		db      func(float64) *dataset.DB
		scale   float64
		support float64
		top     int
	}{
		{"chess4", datasets.Chess, 1, 0.30, 3},
		{"t40_2", datasets.T40I10D100K, 0.05, 0.04, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := minedTrie(b, bc.db(bc.scale), bc.support, bc.top, sched.NewTeam(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				generated = tr.Generate()
			}
		})
	}
}
