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

// BenchmarkPrune times the subset check of Apriori's apriori/prune4
// loop: the level-4 candidates of the chess generator at 30% support,
// recoded by ascending support as fim.Mine does, on a team of two
// under Apriori's static schedule. Levels 2 and 3 commit exactly the
// frequent itemsets an Eclat run finds.
func BenchmarkPrune(b *testing.B) {
	db := datasets.Chess(1)
	minSup := db.AbsoluteSupport(0.30)
	team := sched.NewTeam(2)
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
	for k := 2; k <= 3; k++ {
		c := tr.Generate()
		for i := range c.Px {
			full := tr.ItemsetOf(k-1, c.Px[i]).Extend(c.Level.Items[i])
			c.Level.Supports[i] = frequent[full.Key()]
		}
		tr.Commit(c, minSup)
	}
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
