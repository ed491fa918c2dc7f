package fim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/verify"
)

// TestLevelEndCountsMatchReference: the Frequent count of every
// level_end Apriori and Eclat emit on chess equals the reference's
// count of itemsets of that size. The tidset and diffset combines stop
// early on a child that cannot reach minimum support and report it
// with a partial support; no level may count such a child as frequent,
// nor lose a frequent one. Eclat's subtree stage at level d counts
// every itemset larger than d.
func TestLevelEndCountsMatchReference(t *testing.T) {
	db := runctlDB(t)
	minSup := db.AbsoluteSupport(0.45)
	ref := verify.Reference(db.Recode(minSup), minSup)
	bySize := map[int]int{}
	for _, c := range ref.Counts {
		bySize[len(c.Items)]++
	}
	larger := func(k int) int {
		n := 0
		for size, c := range bySize {
			if size > k {
				n += c
			}
		}
		return n
	}
	type cell struct {
		algo  Algorithm
		depth int
	}
	cells := []cell{{Apriori, 0}, {Eclat, 1}, {Eclat, 2}, {Eclat, 0}}
	for _, rep := range []Representation{Tidset, Diffset} {
		for _, c := range cells {
			label := fmt.Sprintf("%v/%v depth %d", c.algo, rep, c.depth)
			rec := &EventRecorder{}
			_, err := MineAbsolute(db, minSup, Options{
				Algorithm: c.algo, Representation: rep, Workers: 2, EclatDepth: c.depth, Observer: rec,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			levels := 0
			for _, e := range rec.Events() {
				if e.Type != EventLevelEnd {
					continue
				}
				levels++
				want := bySize[e.Level]
				if strings.HasSuffix(e.Phase, "/subtrees") {
					want = larger(e.Level)
				}
				if e.Frequent != want {
					t.Errorf("%s: level_end %q (level %d) frequent %d, reference %d", label, e.Phase, e.Level, e.Frequent, want)
				}
			}
			if levels == 0 {
				t.Errorf("%s: no level_end events", label)
			}
		}
	}
}
