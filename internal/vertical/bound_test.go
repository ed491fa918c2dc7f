package vertical

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/itemset"
)

// TestNilArenaCombineExact: Combine — CombineInto with no arena — is
// exact for every kind, the supports of infrequent children included,
// over every pair and triple of random databases. A nil arena carries
// no minimum support, so no kernel may stop early.
func TestNilArenaCombineExact(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		rec := randomRecoded(t, r, 4+r.Intn(4), 20+r.Intn(80))
		n := len(rec.Items)
		support := func(items ...int) int {
			s := make([]itemset.Item, len(items))
			for i, it := range items {
				s[i] = itemset.Item(it)
			}
			set, c := itemset.New(s...), 0
			for _, tr := range rec.DB.Transactions {
				if set.IsSubsetOf(tr) {
					c++
				}
			}
			return c
		}
		for _, kind := range AllKinds() {
			rep := New(kind)
			roots := rep.Roots(rec)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					pair := rep.Combine(roots[i], roots[j])
					if want := support(i, j); pair.Support() != want {
						t.Fatalf("trial %d %v: support({%d,%d}) = %d, want %d", trial, kind, i, j, pair.Support(), want)
					}
					for k := j + 1; k < n; k++ {
						triple := rep.Combine(pair, rep.Combine(roots[i], roots[k]))
						if want := support(i, j, k); triple.Support() != want {
							t.Fatalf("trial %d %v: support({%d,%d,%d}) = %d, want %d", trial, kind, i, j, k, triple.Support(), want)
						}
					}
				}
			}
		}
	}
}

// TestArenaBoundsCombine: through an arena carrying a minimum support,
// CombineInto and CombineManyInto give a child that reaches it the
// exact support Combine gives (and, for the tidset and diffset kinds
// whose kernels take the bound, the exact payload), and any other child
// some support below it — for every kind, at every minimum support from
// 1 to past the largest root's, on pairs and on triples.
func TestArenaBoundsCombine(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		rec := randomRecoded(t, r, 4+r.Intn(3), 20+r.Intn(60))
		n := len(rec.Items)
		for _, kind := range AllKinds() {
			rep := New(kind)
			roots := rep.Roots(rec)
			bounded := kind == Tidset || kind == Diffset
			top := 0
			for _, it := range rec.Items {
				top = max(top, it.Support)
			}
			for minSup := 1; minSup <= top+1; minSup++ {
				a := NewArena(minSup)
				check := func(label string, got, want Node) {
					t.Helper()
					switch {
					case want.Support() >= minSup && (got.Support() != want.Support() || bounded && !slices.Equal(payload(got), payload(want))):
						t.Fatalf("trial %d %v minSup %d %s: got support %d, want %d",
							trial, kind, minSup, label, got.Support(), want.Support())
					case want.Support() < minSup && got.Support() >= minSup:
						t.Fatalf("trial %d %v minSup %d %s: infrequent child (support %d) reports %d",
							trial, kind, minSup, label, want.Support(), got.Support())
					}
				}
				for i := 0; i+1 < n; i++ {
					block := roots[i+1:]
					pys, out := a.NodeScratch(len(block))
					copy(pys, block)
					rep.CombineManyInto(roots[i], pys, out, a)
					exact := make([]Node, len(block))
					for k, py := range block {
						exact[k] = rep.Combine(roots[i], py)
						check(fmt.Sprintf("pair (%d,%d)", i, i+1+k), rep.CombineInto(a, roots[i], py), exact[k])
						check(fmt.Sprintf("batched pair (%d,%d)", i, i+1+k), out[k], exact[k])
					}
					for k := 0; k+1 < len(exact); k++ {
						for l := k + 1; l < len(exact); l++ {
							check(fmt.Sprintf("triple (%d,%d,%d)", i, i+1+k, i+1+l),
								rep.CombineInto(a, exact[k], exact[l]), rep.Combine(exact[k], exact[l]))
						}
					}
				}
			}
		}
	}
}
