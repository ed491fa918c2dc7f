package vertical

// The exhaustive-kind coverage gate (satellite of the nodeset PR):
// several switches in this package and its callers are written over
// Kind or over node types without a default that fails, so a newly
// added kind could silently fall through — combining without arena
// recycling, never degrading, or dropping its kernel counters. This
// test walks AllKinds(), the single canonical slice every new kind
// must join, and fails loudly for any kind missing from New, ParseKind
// and String, the Roots/CombineManyInto contract, the arena
// Release switch, the degrade tables, or kcount's kind mirror.

import (
	"strings"
	"testing"

	"repro/internal/kcount"
)

func TestAllKindsCoverage(t *testing.T) {
	rec := exampleRecoded(t, 1)
	refTriple := len(rowTIDs(rec, []int{0, 1, 2}, -1))

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

		// Mining contract: Roots and the batched combine agree with the
		// rows, two levels deep.
		roots := rep.Roots(rec)
		if len(roots) != len(rec.Items) {
			t.Fatalf("%v: %d roots, want %d", kind, len(roots), len(rec.Items))
		}
		pairs := combineBlock(rep, nil, roots[0], roots[1:4])
		for i, n := range pairs {
			checkNode(t, name, rec, []int{0, 1 + i}, n, 0)
		}
		pair, sib := pairs[0], pairs[1]
		triple := combineBlock(rep, nil, pair, []Node{sib})[0]
		checkNode(t, name, rec, []int{0, 1, 2}, triple, 0)

		// Arena coverage: a kind whose combine draws nodes from the arena
		// must also be accepted by the Release switch, or recycling
		// silently never happens for it.
		a := NewArena(0)
		a.Release(combineBlock(rep, a, roots[0], roots[1:2])[0])
		if a.Kernels.ArenaMisses != 0 {
			c := combineBlock(rep, a, roots[0], roots[2:3])[0]
			if a.Kernels.ArenaHits != 1 {
				t.Fatalf("%v: Release/CombineManyInto recycled nothing (hits=%d) — kind missing from the Release switch?", kind, a.Kernels.ArenaHits)
			}
			checkNode(t, name+" recycled", rec, []int{0, 2}, c, 0)
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
			ds := DegradeChild(roots[0], sib, nil)
			dTriple := combineBlock(New(Diffset), nil, dc, []Node{ds})[0]
			if dTriple.Support() != refTriple {
				t.Fatalf("%v: post-degrade combine support %d, want %d", kind, dTriple.Support(), refTriple)
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
		combineBlock(rep, shard, roots[0], roots[1:2])
		if shard.Kernels.Map()["nodes_built_"+name] == 0 {
			t.Fatalf("%v: CombineManyInto charged no nodes_built_%s — kcount kind mirror out of sync?", kind, name)
		}
	}
}
