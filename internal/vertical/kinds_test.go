package vertical

// The exhaustive-kind coverage gate (satellite of the nodeset PR):
// several switches in this package and its callers are written over
// Kind or over node types without a default that fails, so a newly
// added kind could silently fall through — combining without arena
// recycling, never degrading, or dropping its kernel counters. This
// test walks AllKinds(), the single canonical slice every new kind
// must join, and fails loudly for any kind missing from New, ParseKind
// and String, the Roots/Combine/CombineManyInto contract, the arena
// Release switch, the degrade tables, or kcount's kind mirror.

import (
	"strings"
	"testing"

	"repro/internal/kcount"
)

func TestAllKindsCoverage(t *testing.T) {
	rec := exampleRecoded(t, 1)
	ref := New(Tidset)
	refRoots := ref.Roots(rec)
	refPair := ref.Combine(refRoots[0], refRoots[1])
	refTriple := ref.Combine(refPair, ref.Combine(refRoots[0], refRoots[2]))

	seen := map[Kind]bool{}
	for _, kind := range AllKinds() {
		if seen[kind] {
			t.Fatalf("%v appears twice in AllKinds", kind)
		}
		seen[kind] = true

		// Identity plumbing: String, ParseKind, New.
		name := kind.String()
		if strings.HasPrefix(name, "Kind(") {
			t.Fatalf("kind %d has no String name", int(kind))
		}
		parsed, err := ParseKind(name)
		if err != nil || parsed != kind {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", name, parsed, err, kind)
		}
		rep := New(kind)
		if rep.Kind() != kind {
			t.Fatalf("New(%v).Kind() = %v", kind, rep.Kind())
		}

		// Mining contract: Roots, Combine and the batched combine agree
		// with the tidset reference on supports, two levels deep.
		roots := rep.Roots(rec)
		if len(roots) != len(rec.Items) {
			t.Fatalf("%v: %d roots, want %d", kind, len(roots), len(rec.Items))
		}
		pair := rep.Combine(roots[0], roots[1])
		if pair.Support() != refPair.Support() {
			t.Fatalf("%v: pair support %d, want %d", kind, pair.Support(), refPair.Support())
		}
		sib := rep.Combine(roots[0], roots[2])
		triple := rep.Combine(pair, sib)
		if triple.Support() != refTriple.Support() {
			t.Fatalf("%v: triple support %d, want %d", kind, triple.Support(), refTriple.Support())
		}
		pys := []Node{roots[1], roots[2], roots[3]}
		out := make([]Node, len(pys))
		rep.CombineManyInto(roots[0], pys, out, nil)
		for i, py := range pys {
			if want := rep.Combine(roots[0], py).Support(); out[i].Support() != want {
				t.Fatalf("%v: batched child %d support %d, want %d", kind, i, out[i].Support(), want)
			}
		}

		// Arena coverage: a kind whose CombineInto draws nodes from the
		// arena must also be accepted by the Release switch, or recycling
		// silently never happens for it.
		a := NewArena(0)
		a.Release(rep.CombineInto(a, roots[0], roots[1]))
		if a.Kernels.ArenaMisses != 0 {
			c := rep.CombineInto(a, roots[0], roots[2])
			if a.Kernels.ArenaHits != 1 {
				t.Fatalf("%v: Release/CombineInto recycled nothing (hits=%d) — kind missing from the Release switch?", kind, a.Kernels.ArenaHits)
			}
			if want := rep.Combine(roots[0], roots[2]).Support(); c.Support() != want {
				t.Fatalf("%v: recycled combine support %d, want %d", kind, c.Support(), want)
			}
		}

		// Degrade coverage: Degradable(kind) must agree with the
		// DegradeChild/DegradeRoot type switches, and the degraded
		// diffsets must preserve supports and continue combining
		// exactly (the degraded pair and sibling recombine to the
		// reference triple support).
		dc := DegradeChild(roots[0], pair, nil)
		dr := DegradeRoot(roots[0], rec.Universe)
		if Degradable(kind) != (dc != nil) || Degradable(kind) != (dr != nil) {
			t.Fatalf("%v: Degradable=%v but DegradeChild=%v DegradeRoot=%v — kind missing from a degrade switch?",
				kind, Degradable(kind), dc != nil, dr != nil)
		}
		if dc != nil {
			if dc.Support() != pair.Support() {
				t.Fatalf("%v: degraded child support %d, want %d", kind, dc.Support(), pair.Support())
			}
			if dr.Support() != roots[0].Support() {
				t.Fatalf("%v: degraded root support %d, want %d", kind, dr.Support(), roots[0].Support())
			}
			ds := DegradeChild(roots[0], sib, nil).(*DiffsetNode)
			dTriple := New(Diffset).Combine(dc, ds)
			if dTriple.Support() != refTriple.Support() {
				t.Fatalf("%v: post-degrade combine support %d, want %d", kind, dTriple.Support(), refTriple.Support())
			}
		}

		// kcount mirror: CountRoots and a combine through an arena must
		// charge the kind's own counter under the matching wire name
		// (vertical.Kind and kcount's kind indices are maintained in
		// parallel).
		var st kcount.Stats
		CountRoots(&st, kind, roots)
		if got := st.Map()["nodes_built_"+name]; got != int64(len(roots)) {
			t.Fatalf("%v: CountRoots charged nodes_built_%s = %d, want %d — kcount kind mirror out of sync?", kind, name, got, len(roots))
		}
		shard := NewArena(0)
		rep.CombineInto(shard, roots[0], roots[1])
		if shard.Kernels.Map()["nodes_built_"+name] == 0 {
			t.Fatalf("%v: CombineInto charged no nodes_built_%s — kcount kind mirror out of sync?", kind, name)
		}
	}
}
