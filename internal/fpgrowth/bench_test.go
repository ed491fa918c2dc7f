package fpgrowth

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/datasets"
	"repro/internal/nodeset"
	"repro/internal/sched"
)

// BenchmarkFPTree times the two kernels of an FP-growth mine on the
// chess generator at 30% support, recoded by ascending support on a
// team of two as fim.Mine does: build is one chunk's tree, the body of
// the fpgrowth/tree loop; conditional is one top-level ConditionalOf
// over both chunk trees, a task of the fpgrowth/items loop, for item 0,
// the least frequent, whose prefix paths are the longest.
func BenchmarkFPTree(b *testing.B) {
	db := datasets.Chess(1)
	minSup := db.AbsoluteSupport(0.30)
	rec, err := db.RecodeOn(dataset.Pass{Team: sched.NewTeam(2)}, minSup, dataset.ByFrequency)
	if err != nil {
		b.Fatal(err)
	}
	chunks := rec.Chunks()
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			chunkTree(rec, chunks[0], nil)
		}
	})
	trees := make([]*nodeset.Tree, len(chunks))
	for c, ch := range chunks {
		trees[c], _ = chunkTree(rec, ch, nil)
	}
	b.Run("conditional", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nodeset.ConditionalOf(trees, 0, minSup)
		}
	})
}
