package nodeset

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/itemset"
)

// paperExample mirrors the vertical package's 6-item example database.
const paperExample = `1 3 4 5
1 2 3 5
3 5
1 3 4
1 2 3 5
2 3 5
1 2 5 6
`

func exampleRecoded(t *testing.T, minSup int) *dataset.Recoded {
	t.Helper()
	db, err := dataset.ReadFIMI("paper", strings.NewReader(paperExample))
	if err != nil {
		t.Fatal(err)
	}
	return db.Recode(minSup)
}

// randomRecoded builds a deterministic random database: item i appears
// in a transaction with probability falling with i, giving the skewed
// supports the dense benchmarks have.
func randomRecoded(tb testing.TB, seed int64, nTrans, nItems, minSup int) *dataset.Recoded {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for t := 0; t < nTrans; t++ {
		wrote := false
		for i := 0; i < nItems; i++ {
			p := 0.9 - 0.8*float64(i)/float64(nItems)
			if rng.Float64() < p {
				fmt.Fprintf(&sb, "%d ", i+1)
				wrote = true
			}
		}
		if !wrote {
			fmt.Fprintf(&sb, "%d ", 1+rng.Intn(nItems))
		}
		sb.WriteByte('\n')
	}
	db, err := dataset.ReadFIMI("rand", strings.NewReader(sb.String()))
	if err != nil {
		tb.Fatal(err)
	}
	return db.Recode(minSup)
}

// horizontalSupport counts the transactions of rec containing every
// dense code in items — the ground truth the kernels are checked
// against.
func horizontalSupport(rec *dataset.Recoded, items []int) int {
	sup := 0
	for _, tr := range rec.DB.Transactions {
		ok := true
		for _, want := range items {
			if !tr.Contains(itemset.Item(want)) {
				ok = false
				break
			}
		}
		if ok {
			sup++
		}
	}
	return sup
}

// expandTIDs expands a DiffNodeset to its sorted relabeled TID set via
// the encoding's interval table — the degrade shim's kernel.
func expandTIDs(enc *Encoding, l List) []uint32 {
	var out []uint32
	for _, e := range l {
		lo := enc.Lo[e.Pre]
		for k := uint32(0); k < e.Count; k++ {
			out = append(out, lo+k)
		}
	}
	return out
}

func l1Materialize(enc *Encoding, l []L1Entry) []uint32 {
	dn := make(List, len(l))
	for i, e := range l {
		dn[i] = Entry{Pre: e.Pre, Count: e.Count}
	}
	return expandTIDs(enc, dn)
}

func TestEncodeInvariants(t *testing.T) {
	for name, rec := range map[string]*dataset.Recoded{
		"paper": exampleRecoded(t, 1),
		"rand":  randomRecoded(t, 7, 80, 12, 2),
	} {
		enc := Build(rec)
		if enc.Nodes != len(enc.Lo) {
			t.Fatalf("%s: Nodes %d != len(Lo) %d", name, enc.Nodes, len(enc.Lo))
		}
		covered := make([]int, enc.Total)
		for i, nl := range enc.NLists {
			sum := 0
			for k, e := range nl {
				sum += int(e.Count)
				if k > 0 {
					prev := nl[k-1]
					if e.Pre <= prev.Pre || e.Post <= prev.Post {
						t.Fatalf("%s item %d: N-list not ascending at %d", name, i, k)
					}
					if prev.Pre < e.Pre && prev.Post > e.Post {
						t.Fatalf("%s item %d: N-list is not an antichain", name, i)
					}
				}
			}
			if sum != rec.Items[i].Support {
				t.Errorf("%s item %d: N-list count sum %d, want support %d",
					name, i, sum, rec.Items[i].Support)
			}
			// The item's relabeled tidset: intervals must be disjoint,
			// in-range, and |t(i)| = support(i).
			tids := l1Materialize(enc, nl)
			for k, tid := range tids {
				if k > 0 && tids[k-1] >= tid {
					t.Fatalf("%s item %d: materialized TIDs not strictly ascending", name, i)
				}
				if int(tid) >= enc.Total {
					t.Fatalf("%s item %d: TID %d outside [0, %d)", name, i, tid, enc.Total)
				}
				covered[tid]++
			}
		}
		// Every relabeled transaction carries at least one frequent item
		// (empty ones never enter the tree), so every label is covered.
		for tid, c := range covered {
			if c == 0 {
				t.Errorf("%s: relabeled TID %d not covered by any item", name, tid)
			}
		}
	}
}

// TestKernelSupportsMatchHorizontal drives the full combine discipline
// the miners use — ascending-code equivalence classes, 2-itemset
// construction from N-lists, then k-itemset differences — and checks
// every support against a horizontal count, and every materialized
// DiffNodeset against the parent/child relabeled-tidset difference
// (the degrade shim's exactness).
func TestKernelSupportsMatchHorizontal(t *testing.T) {
	for name, rec := range map[string]*dataset.Recoded{
		"paper": exampleRecoded(t, 1),
		"rand":  randomRecoded(t, 11, 60, 10, 2),
	} {
		enc := Build(rec)
		type member struct {
			items []int
			dn    List
			sup   int
			tids  []uint32 // relabeled t(itemset), maintained as ground truth
		}
		var recurse func(class []member, depth int)
		recurse = func(class []member, depth int) {
			if depth > 4 {
				return
			}
			for i := 0; i < len(class); i++ {
				var next []member
				for j := i + 1; j < len(class); j++ {
					px, py := class[i], class[j]
					dn, sum := DiffInto(py.dn, px.dn, nil, nil)
					child := member{
						items: append(append([]int{}, px.items...), py.items[len(py.items)-1]),
						dn:    dn,
						sup:   px.sup - sum,
					}
					if want := horizontalSupport(rec, child.items); child.sup != want {
						t.Fatalf("%s %v: support %d, want %d", name, child.items, child.sup, want)
					}
					// Degrade exactness: trans(DN(X)) = t(PX) \ t(X).
					mat := expandTIDs(enc, dn)
					child.tids = diffU32(px.tids, mat)
					if len(child.tids) != child.sup {
						t.Fatalf("%s %v: materialized diff has %d TIDs, support %d",
							name, child.items, len(child.tids), child.sup)
					}
					if child.sup >= rec.MinSup {
						next = append(next, child)
					}
				}
				recurse(next, depth+1)
			}
		}
		// Level 1 → 2: the L1 ancestor-merge kernel seeds each class.
		for x := range rec.Items {
			xTids := l1Materialize(enc, enc.NLists[x])
			var class []member
			for y := x + 1; y < len(rec.Items); y++ {
				dn, sum := DiffL1Into(enc.NLists[x], enc.NLists[y], nil, nil)
				sup := rec.Items[x].Support - sum
				if want := horizontalSupport(rec, []int{x, y}); sup != want {
					t.Fatalf("%s {%d,%d}: support %d, want %d", name, x, y, sup, want)
				}
				tids := diffU32(xTids, expandTIDs(enc, dn))
				if len(tids) != sup {
					t.Fatalf("%s {%d,%d}: materialized diff %d TIDs, support %d",
						name, x, y, len(tids), sup)
				}
				if sup >= rec.MinSup {
					class = append(class, member{items: []int{x, y}, dn: dn, sup: sup, tids: tids})
				}
			}
			recurse(class, 2)
		}
	}
}

func diffU32(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return append(out, a[i:]...)
}

// TestBatchedMatchesPairwise: the Many kernels are semantically m
// pairwise calls.
func TestBatchedMatchesPairwise(t *testing.T) {
	rec := randomRecoded(t, 3, 70, 11, 2)
	enc := Build(rec)
	n := len(rec.Items)
	for x := 0; x < n-1; x++ {
		var (
			nys  [][]L1Entry
			want []List
			sums []int
		)
		for y := x + 1; y < n; y++ {
			nys = append(nys, enc.NLists[y])
			dn, sum := DiffL1Into(enc.NLists[x], enc.NLists[y], nil, nil)
			want = append(want, dn)
			sums = append(sums, sum)
		}
		dsts := make([]List, len(nys))
		gotSums := make([]int, len(nys))
		DiffL1ManyInto(enc.NLists[x], nys, dsts, gotSums, nil)
		for i := range nys {
			if gotSums[i] != sums[i] || !listsEqual(dsts[i], want[i]) {
				t.Fatalf("DiffL1ManyInto block %d child %d disagrees with pairwise", x, i)
			}
		}
		// k-item batch: subtract the first pair's list from the others.
		if len(want) > 1 {
			sub := want[0]
			srcs := want[1:]
			dsts := make([]List, len(srcs))
			gotSums := make([]int, len(srcs))
			DiffManyInto(sub, srcs, dsts, gotSums, nil)
			for i, src := range srcs {
				pw, sum := DiffInto(src, sub, nil, nil)
				if gotSums[i] != sum || !listsEqual(dsts[i], pw) {
					t.Fatalf("DiffManyInto block %d child %d disagrees with pairwise", x, i)
				}
			}
		}
	}
}

func listsEqual(a, b List) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConditionalSharedTree guards the fpgrowth-shared tree surface:
// ConditionalOf must reproduce the prefix paths with occurrence counts,
// and drop the items its pattern base holds fewer than minSup times.
func TestConditionalSharedTree(t *testing.T) {
	tr := NewTree()
	tr.Insert([]int32{3, 2, 1}, 2)
	tr.Insert([]int32{3, 1}, 1)
	tr.Insert([]int32{2, 1}, 1)
	tr.Insert([]int32{4, 1}, 1)
	cond := ConditionalOf([]*Tree{tr}, 1, 3)
	if cond.Count(3) != 3 || cond.Count(2) != 3 || cond.Count(4) != 0 {
		t.Fatalf("conditional counts = %d/%d/%d, want 3 for items 2 and 3, 0 for 4",
			cond.Count(2), cond.Count(3), cond.Count(4))
	}
	if want := map[string]int{"3": 3, "3 2": 2, "2": 1}; !maps.Equal(treePaths(cond), want) {
		t.Fatalf("conditional paths = %v, want %v", treePaths(cond), want)
	}
	if tr.NNodes() != 8 {
		t.Fatalf("tree has %d nodes, want 8", tr.NNodes())
	}
	if size := unsafe.Sizeof(TreeNode{}); size != TreeNodeBytes {
		t.Fatalf("TreeNode is %d bytes, TreeNodeBytes says %d", size, TreeNodeBytes)
	}
	// Five item codes (0..4) in the tables, the slab at its capacity.
	if want := int64(cap(tr.Nodes))*TreeNodeBytes + 5*(4+8) + int64(cap(tr.items))*4; tr.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", tr.Bytes(), want)
	}
	paths := treePaths(tr)
	tr.Nodes = slices.Grow(tr.Nodes, 100)
	if tr.Trim(); cap(tr.Nodes) >= 2*len(tr.Nodes) || !maps.Equal(treePaths(tr), paths) {
		t.Fatalf("Trim left capacity %d for %d nodes or changed the paths", cap(tr.Nodes), len(tr.Nodes))
	}
	if empty := ConditionalOf([]*Tree{tr}, 1, 4); len(empty.Items()) != 0 || empty.NNodes() != 0 {
		t.Fatalf("minSup above every count left items %v", empty.Items())
	}
}

// TestConditionalOfSplit: the conditional tree of every item over the
// chunk trees of any split of the rows has the same paths and counts as
// over the one tree of all rows, which is the pattern base of the rows
// that hold the item with its items under minSup dropped. Its items are
// ascending, each at least minSup, and each header chain sums to its
// item's count.
func TestConditionalOfSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rec := randomRecoded(t, int64(trial), 50+rng.Intn(200), 4+rng.Intn(12), 1)
		rows := make([][]int32, len(rec.DB.Transactions))
		for tid, tr := range rec.DB.Transactions {
			for i := len(tr) - 1; i >= 0; i-- {
				rows[tid] = append(rows[tid], int32(tr[i]))
			}
		}
		whole := treeOf(rows)
		var forest []*Tree
		for lo := 0; lo < len(rows); {
			hi := min(len(rows), lo+1+rng.Intn(len(rows)/2))
			forest = append(forest, treeOf(rows[lo:hi]))
			lo = hi
		}
		minSup := 1 + rng.Intn(len(rows)/4)
		for it := range rec.Items {
			label := fmt.Sprintf("trial %d item %d minSup %d", trial, it, minSup)
			want := treePaths(baseTree(rows, int32(it), minSup))
			one := ConditionalOf([]*Tree{whole}, int32(it), minSup)
			if got := treePaths(one); !maps.Equal(got, want) {
				t.Fatalf("%s: whole tree paths %v, want %v", label, got, want)
			}
			split := ConditionalOf(forest, int32(it), minSup)
			if got := treePaths(split); !maps.Equal(got, want) {
				t.Fatalf("%s: %d chunk trees give paths %v, want %v", label, len(forest), got, want)
			}
			if !slices.IsSorted(split.Items()) {
				t.Errorf("%s: items %v not ascending", label, split.Items())
			}
			for _, x := range split.Items() {
				chain := 0
				for link := split.heads[x]; link != -1; link = split.Nodes[link].Next {
					chain += int(split.Nodes[link].Count)
				}
				if c := split.Count(x); c < minSup || c != chain {
					t.Errorf("%s: item %d count %d, header chain %d, minSup %d", label, x, c, chain, minSup)
				}
			}
		}
	}
}

// treeOf inserts rows, each in tree order, into a new tree.
func treeOf(rows [][]int32) *Tree {
	t := NewTree()
	for _, r := range rows {
		t.Insert(r, 1)
	}
	return t
}

// baseTree is the conditional tree of item it built from the rows
// themselves: every row holding it contributes its items above it, less
// those held by fewer than minSup such rows.
func baseTree(rows [][]int32, it int32, minSup int) *Tree {
	counts := map[int32]int{}
	for _, r := range rows {
		if slices.Contains(r, it) {
			for _, x := range r {
				if x > it {
					counts[x]++
				}
			}
		}
	}
	t := NewTree()
	for _, r := range rows {
		if !slices.Contains(r, it) {
			continue
		}
		var path []int32
		for _, x := range r {
			if x > it && counts[x] >= minSup {
				path = append(path, x)
			}
		}
		t.Insert(path, 1)
	}
	return t
}

// treePaths maps the item path from the root to every node, spelled
// out, to the node's count: equal maps are equal trees, whatever the
// order of their children.
func treePaths(t *Tree) map[string]int {
	paths := map[string]int{}
	for i := 1; i < len(t.Nodes); i++ {
		var path []string
		for p := int32(i); p > 0; p = t.Nodes[p].Parent {
			path = append(path, fmt.Sprint(t.Nodes[p].Item))
		}
		slices.Reverse(path)
		paths[strings.Join(path, " ")] = int(t.Nodes[i].Count)
	}
	return paths
}
