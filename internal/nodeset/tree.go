// Package nodeset implements the PPC-tree-encoded vertical
// representation of Deng's DiffNodesets (PAPERS.md, arXiv:1507.01345):
// the prefix tree of transactions is annotated with pre/post-order
// ranks, each frequent item's occurrences become a sorted N-list of
// {pre, post, count} triples, and itemset supports are computed by
// linear merges over those lists. Because the tree collapses
// co-occurring transactions into single nodes, the lists — and the
// merges — are shorter than the equivalent tidset or diffset work on
// exactly the dense datasets the paper targets.
//
// Tree, in this file, is not part of that representation: the PPC
// encoding (encode.go) plays the prefix tree's walk without building
// nodes. Tree is package fpgrowth's FP-tree (Insert, ConditionalOf),
// kept here until the Nodeset representation is deleted and the tree
// moves to fpgrowth.
package nodeset

import "slices"

// TreeNode is one FP-tree node. Nodes live in the tree's slab and
// reference each other by slab index (-1 = none): the build path is
// FP-growth's hot loop, and a slab of index-linked nodes costs one
// allocation per slab growth instead of one node plus one children map
// per prefix, with no pointer graph for the collector to trace.
type TreeNode struct {
	Item    int32 // dense item code, -1 at the root
	Count   int32
	Parent  int32
	Child   int32 // first child (most recently used: Insert front-moves)
	Sibling int32 // next child of Parent
	Next    int32 // header-chain link
}

// Tree is FP-growth's FP-tree: a prefix tree of transactions with a
// per-item header table. Nodes[0] is the root.
type Tree struct {
	Nodes  []TreeNode
	heads  []int32 // item -> first node of its header chain, -1 if absent
	counts []int   // item -> total count in this tree
	items  []int32 // items present, in first-appearance order
}

// TreeNodeBytes is one slab entry's size: six int32 fields.
const TreeNodeBytes = 24

// Bytes is the tree's heap footprint for the memory budget: the slab's
// capacity, which runs ahead of its nodes as append grows it, plus the
// per-item header, count and item tables.
func (t *Tree) Bytes() int64 {
	return int64(cap(t.Nodes))*TreeNodeBytes +
		int64(len(t.heads))*4 + int64(len(t.counts))*8 + int64(cap(t.items))*4
}

// Trim reallocates the slab at its length, rounded up only to the
// allocator's size class, for a tree that is built and will be read
// for a long time: one copy of the nodes instead of up to as many
// again of growth slack held and charged.
func (t *Tree) Trim() { t.Nodes = slices.Clone(t.Nodes) }

// NNodes is the number of item nodes (the pre/post rank space; the
// root is not counted).
func (t *Tree) NNodes() int { return len(t.Nodes) - 1 }

// Items returns the item codes present in the tree: in first-appearance
// order for a tree built by Insert, ascending for one ConditionalOf
// built. Shared storage — callers must not mutate it.
func (t *Tree) Items() []int32 { return t.items }

// Count returns item it's total transaction count in this tree.
func (t *Tree) Count(it int32) int {
	if int(it) >= len(t.counts) {
		return 0
	}
	return t.counts[it]
}

// NewTree returns an empty tree; tables grow on demand as items are
// inserted.
func NewTree() *Tree { return NewTreeSized(0) }

// NewTreeSized returns an empty tree with its per-item tables presized
// for dense codes in [0, nItems).
func NewTreeSized(nItems int) *Tree {
	t := &Tree{
		Nodes:  make([]TreeNode, 1, 64),
		heads:  make([]int32, nItems),
		counts: make([]int, nItems),
		items:  make([]int32, 0, nItems),
	}
	t.Nodes[0] = TreeNode{Item: -1, Parent: -1, Child: -1, Sibling: -1, Next: -1}
	for i := range t.heads {
		t.heads[i] = -1
	}
	return t
}

func (t *Tree) ensure(it int32) {
	for int(it) >= len(t.heads) {
		t.heads = append(t.heads, -1)
		t.counts = append(t.counts, 0)
	}
}

// Insert adds a path of items (already ordered) with the given count.
func (t *Tree) Insert(items []int32, count int) {
	for _, it := range items {
		t.ensure(it)
		if t.counts[it] == 0 {
			t.items = append(t.items, it)
		}
		t.counts[it] += count
	}
	t.link(items, count)
}

// link adds the nodes of a path with the given count, leaving the
// per-item totals to the caller. The matched or created child is moved
// to the front of its sibling list, so the shared prefixes that
// dominate dense databases hit on the first probe.
func (t *Tree) link(items []int32, count int) {
	cur := int32(0)
	for _, it := range items {
		prev, c := int32(-1), t.Nodes[cur].Child
		for c != -1 && t.Nodes[c].Item != it {
			prev, c = c, t.Nodes[c].Sibling
		}
		if c == -1 {
			c = int32(len(t.Nodes))
			if len(t.Nodes) == cap(t.Nodes) {
				// Double the slab: append's growth for large slices is a
				// quarter, which copies the nodes of a big tree five
				// times over as it grows. Bytes charges the capacity,
				// and Trim gives a finished long-lived tree's slack back.
				t.Nodes = slices.Grow(t.Nodes, len(t.Nodes))
			}
			t.Nodes = append(t.Nodes, TreeNode{
				Item: it, Parent: cur, Child: -1,
				Sibling: t.Nodes[cur].Child, Next: t.heads[it],
			})
			t.heads[it] = c
			t.Nodes[cur].Child = c
		} else if prev != -1 {
			t.Nodes[prev].Sibling = t.Nodes[c].Sibling
			t.Nodes[c].Sibling = t.Nodes[cur].Child
			t.Nodes[cur].Child = c
		}
		t.Nodes[c].Count += int32(count)
		cur = c
	}
}

// ConditionalOf builds the conditional FP-tree of item it over a forest
// of trees that each hold a share of the same transactions in the same
// item order: its pattern base is the path above every node of it in
// every tree, with that node's count. A first walk over the header
// chains sums each prefix item's count; the second inserts each path
// with the items under minSup dropped, as Han et al.'s algorithm does,
// so the tree holds only items that can extend the pattern. The
// result's Items are in ascending code order.
func ConditionalOf(trees []*Tree, it int32, minSup int) *Tree {
	minSup = max(minSup, 1)
	n := 0
	for _, t := range trees {
		n = max(n, len(t.heads))
	}
	cond := NewTreeSized(n)
	chains := func(visit func(t *Tree, node TreeNode)) {
		for _, t := range trees {
			if int(it) >= len(t.heads) {
				continue
			}
			for link := t.heads[it]; link != -1; link = t.Nodes[link].Next {
				visit(t, t.Nodes[link])
			}
		}
	}
	chains(func(t *Tree, node TreeNode) {
		for p := node.Parent; p > 0; p = t.Nodes[p].Parent {
			cond.counts[t.Nodes[p].Item] += int(node.Count)
		}
	})
	for j, c := range cond.counts {
		if c >= minSup {
			cond.items = append(cond.items, int32(j))
		} else {
			cond.counts[j] = 0
		}
	}
	if len(cond.items) == 0 {
		return cond
	}
	var path []int32
	chains(func(t *Tree, node TreeNode) {
		path = path[:0]
		for p := node.Parent; p > 0; p = t.Nodes[p].Parent {
			if item := t.Nodes[p].Item; cond.counts[item] > 0 {
				path = append(path, item)
			}
		}
		slices.Reverse(path)
		if len(path) > 0 {
			cond.link(path, int(node.Count))
		}
	})
	return cond
}
