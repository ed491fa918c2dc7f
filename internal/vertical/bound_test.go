package vertical

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// TestNilArenaCombineExact: a combine with no arena is exact for every
// kind, the supports and payloads of infrequent children included, over
// every pair and triple of random databases, against the rows. A nil
// arena carries no minimum support, so no kernel may stop early.
func TestNilArenaCombineExact(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		rec := randomRecoded(t, r, 4+r.Intn(4), 20+r.Intn(80))
		n := len(rec.Items)
		for _, kind := range AllKinds() {
			rep := New(kind)
			roots := rep.Roots(rec)
			label := fmt.Sprintf("trial %d %v", trial, kind)
			for i := 0; i+1 < n; i++ {
				pairs := combineBlock(rep, nil, roots[i], roots[i+1:])
				for j, pair := range pairs {
					checkNode(t, label, rec, []int{i, i + 1 + j}, pair, 0)
				}
				items, freq := extendable(rec, i, pairs)
				for j := 0; j+1 < len(freq); j++ {
					for k, triple := range combineBlock(rep, nil, freq[j], freq[j+1:]) {
						checkNode(t, label, rec, []int{i, items[j], items[j+1+k]}, triple, 0)
					}
				}
			}
		}
	}
}

// extendable returns the pairs of root i a miner would extend, those
// reaching rec.MinSup (a nodeset pair below it is born without a list),
// with the item each adds to i: pairs[k] is the pair {i, i+1+k}.
func extendable(rec *dataset.Recoded, i int, pairs []Node) (items []int, nodes []Node) {
	for k, p := range pairs {
		if p.Support() >= rec.MinSup {
			items, nodes = append(items, i+1+k), append(nodes, p)
		}
	}
	return items, nodes
}

// TestArenaBoundsCombine: through an arena carrying a minimum support,
// a child that reaches it gets the exact support and payload the rows
// give, and any other child some support below it — for every kind, at
// every minimum support from 1 to past the largest root's, in blocks of
// every later sibling and of one, on pairs and on triples.
func TestArenaBoundsCombine(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		rec := randomRecoded(t, r, 4+r.Intn(3), 20+r.Intn(60))
		n := len(rec.Items)
		for _, kind := range AllKinds() {
			rep := New(kind)
			roots := rep.Roots(rec)
			top := 0
			for _, it := range rec.Items {
				top = max(top, it.Support)
			}
			for minSup := 1; minSup <= top+1; minSup++ {
				a := NewArena(minSup)
				label := fmt.Sprintf("trial %d %v minSup %d", trial, kind, minSup)
				for i := 0; i+1 < n; i++ {
					block := roots[i+1:]
					pys, out := a.NodeScratch(len(block))
					copy(pys, block)
					rep.CombineManyInto(roots[i], pys, out, a)
					exact := combineBlock(rep, nil, roots[i], block)
					for k := range block {
						pair := []int{i, i + 1 + k}
						checkNode(t, label+" batched pair", rec, pair, out[k], minSup)
						checkNode(t, label+" one-sibling pair", rec, pair, combineBlock(rep, a, roots[i], block[k:k+1])[0], minSup)
					}
					items, freq := extendable(rec, i, exact)
					for k := 0; k+1 < len(freq); k++ {
						for l, triple := range combineBlock(rep, a, freq[k], freq[k+1:]) {
							checkNode(t, label+" triple", rec, []int{i, items[k], items[k+1+l]}, triple, minSup)
						}
					}
				}
			}
		}
	}
}
