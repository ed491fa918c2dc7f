package tidset_test

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/datasets"
	"repro/internal/tidset"
)

// The merge-regime micro-benchmarks replay the kernel work of Eclat's
// eclat/expand4 stage on two benchmark workloads: chess_deep (chess at
// 0.30) and pumsb_long (pumsb at 0.70), coded by ascending support as
// fim.Mine codes them. Every level-3 equivalence class (the frequent
// 3-itemsets PX_i sharing a 2-itemset prefix P) joins each atom with
// its later siblings in one batched call, exactly as the stage does:
// the tidset kind intersects t(PX_a) with every t(PX_b), the diffset
// kind subtracts d(PX_a) from every d(PX_b), where d(PX) = t(P) − t(PX)
// is the sparse operand. Real operands matter: a loop over one small
// synthetic block lets the branch predictor learn the branchy merge's
// outcomes, which mining never repeats. Each runs exact and bounded by
// the workload's minimum support. On chess_deep half of these children
// come out infrequent, on pumsb_long three quarters.

// level3Class is one level-3 class: the atoms' tidsets and diffsets.
type level3Class struct {
	tids, diffs []tidset.Set
}

var mergeWorkloads = []struct {
	name, dataset string
	support       float64
}{
	{"chess_deep", "chess", 0.30},
	{"pumsb_long", "pumsb", 0.70},
}

// level3Classes returns the level-3 classes of dataset at support and
// the absolute minimum support.
func level3Classes(b *testing.B, name string, support float64) ([]level3Class, int) {
	b.Helper()
	def, err := datasets.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	db := def.Build(1)
	minSup := db.AbsoluteSupport(support)
	roots := db.RecodeOrdered(minSup, dataset.ByFrequency).TidsetOf()
	var classes []level3Class
	for i := range roots {
		var pairs []tidset.Set
		for j := i + 1; j < len(roots); j++ {
			if t := roots[i].Intersect(roots[j]); len(t) >= minSup {
				pairs = append(pairs, t)
			}
		}
		for a, p := range pairs {
			var c level3Class
			for _, q := range pairs[a+1:] {
				if t := p.Intersect(q); len(t) >= minSup {
					c.tids = append(c.tids, t)
					c.diffs = append(c.diffs, p.Diff(t))
				}
			}
			if len(c.tids) > 1 {
				classes = append(classes, c)
			}
		}
	}
	return classes, minSup
}

// scratch returns destination buffers for the largest block of
// classes, each presized to the longest operand as an arena node is.
func scratch(classes []level3Class) []tidset.Set {
	m, n := 0, 0
	for _, c := range classes {
		m = max(m, len(c.tids))
		for _, t := range c.tids {
			n = max(n, len(t))
		}
	}
	dsts := make([]tidset.Set, m)
	for i := range dsts {
		dsts[i] = make(tidset.Set, 0, n)
	}
	return dsts
}

func BenchmarkIntersectMergeRegimes(b *testing.B) {
	for _, w := range mergeWorkloads {
		classes, minSup := level3Classes(b, w.dataset, w.support)
		dsts := scratch(classes)
		for _, mode := range []struct {
			name string
			need int
		}{{"exact", 0}, {"bounded", minSup}} {
			b.Run(w.name+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, c := range classes {
						for a := 0; a+1 < len(c.tids); a++ {
							sibs := c.tids[a+1:]
							tidset.IntersectManyInto(c.tids[a], sibs, dsts[:len(sibs)], mode.need, nil)
						}
					}
				}
			})
		}
	}
}

func BenchmarkDiffMergeRegimes(b *testing.B) {
	for _, w := range mergeWorkloads {
		classes, minSup := level3Classes(b, w.dataset, w.support)
		dsts := scratch(classes)
		for _, mode := range []struct {
			name    string
			bounded bool
		}{{"exact", false}, {"bounded", true}} {
			b.Run(w.name+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, c := range classes {
						for a := 0; a+1 < len(c.diffs); a++ {
							limit := math.MaxInt
							if mode.bounded {
								limit = len(c.tids[a]) - minSup // sup(PX_a) − minSup
							}
							sibs := c.diffs[a+1:]
							tidset.DiffManyInto(c.diffs[a], sibs, dsts[:len(sibs)], limit, nil)
						}
					}
				}
			})
		}
	}
}
