package vertical

// The combine tests' oracle: supports and payloads read straight off the
// recoded rows, so no test compares a representation's kernels with
// themselves.

import (
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/tidset"
)

// rowTIDs scans rec's recoded rows for the TIDs of the rows that hold
// every item of has and, when lacks ≥ 0, not the item lacks.
func rowTIDs(rec *dataset.Recoded, has []int, lacks int) tidset.Set {
	var out tidset.Set
	for tid, row := range rec.DB.Transactions {
		ok := lacks < 0 || !row.Contains(itemset.Item(lacks))
		for _, it := range has {
			ok = ok && row.Contains(itemset.Item(it))
		}
		if ok {
			out = append(out, tidset.TID(tid))
		}
	}
	return out
}

// combineBlock joins px with the sibling run pys in one CombineManyInto
// call and returns the children; a run of one sibling is the shape of
// Eclat's level-2 tasks.
func combineBlock(rep Representation, a *Arena, px Node, pys []Node) []Node {
	out := make([]Node, len(pys))
	rep.CombineManyInto(px, pys, out, a)
	return out
}

// checkNode fails t unless n is the node of the itemset items (ascending
// codes; below the roots, items[:len(items)-1] is the parent block's
// shared itemset) as rec's rows give it: its support, and the payload
// its kind stores. That is t(X), except for d(X) = t(parent) − t(X) in a
// diffset below the roots and in a hybrid node of diffset form; a
// diffset root's shorter side of its item; and a nodeset list, whose
// TIDs are relabeled, so only its length is checked (a pair below
// rec.MinSup is born without a list). A child combined through an arena
// bounded at minSup need only report a support below it when the rows
// put it there.
func checkNode(t testing.TB, label string, rec *dataset.Recoded, items []int, n Node, minSup int) {
	t.Helper()
	tids := rowTIDs(rec, items, -1)
	if len(tids) < minSup {
		if n.Support() >= minSup {
			t.Fatalf("%s: %v below minSup %d (support %d) reports %d", label, items, minSup, len(tids), n.Support())
		}
		return
	}
	if n.Support() != len(tids) {
		t.Fatalf("%s: %v support %d, want %d", label, items, n.Support(), len(tids))
	}
	k := len(items)
	diff := rowTIDs(rec, nil, items[0])
	if k > 1 {
		diff = rowTIDs(rec, items[:k-1], items[k-1])
	}
	want := tids
	switch c := n.(type) {
	case *DiffsetNode:
		if k == 1 && c.tids != tidsSide(len(tids), rec.Universe) {
			t.Fatalf("%s: root %v holds the longer side", label, items)
		}
		if k > 1 || !c.tids {
			want = diff
		}
	case *HybridNode:
		if c.isDiff {
			want = diff
		}
	case *NodesetNode:
		if k > 1 {
			want = diff
		}
		if k == 2 && len(tids) < rec.MinSup {
			want = nil
		}
		if got := len(payload(n)); got != len(want) {
			t.Fatalf("%s: %v nodeset list of %d TIDs, want %d", label, items, got, len(want))
		}
		return
	}
	if got := payload(n); !slices.Equal(got, []tidset.TID(want)) {
		t.Fatalf("%s: %v payload %v, want %v", label, items, got, want)
	}
}
