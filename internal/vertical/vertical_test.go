package vertical

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/nodeset"
)

// paperDB is the 6-item example of the paper's Figure 2 discussion:
// items A..F mapped to 1..6. With threshold 3 only A, C, E are frequent
// (supports 4, 5, 4), and d(AC) = {3}, support(AC) = 3.
const paperExample = `1 3 4 5
1 2 3 5
3 5
1 3 4
1 2 3 5
2 3 5
1 2 5 6
`

// Note: the paper's figures are not fully reproduced in the available
// text; this database is constructed so that the documented identities
// (diffset subtraction, support arithmetic) are exercised on paper-scale
// data. The identities themselves are checked for all representations.

func exampleRecoded(t *testing.T, minSup int) *dataset.Recoded {
	t.Helper()
	db, err := dataset.ReadFIMI("paper", strings.NewReader(paperExample))
	if err != nil {
		t.Fatal(err)
	}
	return db.Recode(minSup)
}

func TestKindString(t *testing.T) {
	if Tidset.String() != "tidset" || Bitvector.String() != "bitvector" || Diffset.String() != "diffset" {
		t.Error("Kind.String mismatch")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind string")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("horizontal"); err == nil {
		t.Error("ParseKind accepted unknown name")
	}
}

func TestRootsSupportsAgree(t *testing.T) {
	rec := exampleRecoded(t, 3)
	for _, kind := range Kinds() {
		rep := New(kind)
		roots := rep.Roots(rec)
		if len(roots) != len(rec.Items) {
			t.Fatalf("%v: %d roots, want %d", kind, len(roots), len(rec.Items))
		}
		for i, n := range roots {
			if n.Support() != rec.Items[i].Support {
				t.Errorf("%v root %d support = %d, want %d", kind, i, n.Support(), rec.Items[i].Support)
			}
		}
	}
}

// TestCombineAgreesAcrossRepresentations: every pair and triple combined
// under each representation must report the same support — and that
// support must equal a direct horizontal count.
func TestCombineAgreesAcrossRepresentations(t *testing.T) {
	rec := exampleRecoded(t, 1)
	n := len(rec.Items)
	horizontalSupport := func(s itemset.Itemset) int {
		c := 0
		for _, tr := range rec.DB.Transactions {
			if s.IsSubsetOf(tr) {
				c++
			}
		}
		return c
	}
	for _, kind := range Kinds() {
		rep := New(kind)
		roots := rep.Roots(rec)
		for i := 0; i+1 < n; i++ {
			pairs := combineBlock(rep, nil, roots[i], roots[i+1:])
			for a, pair := range pairs {
				j := i + 1 + a
				want := horizontalSupport(itemset.New(itemset.Item(i), itemset.Item(j)))
				if pair.Support() != want {
					t.Errorf("%v support({%d,%d}) = %d, want %d", kind, i, j, pair.Support(), want)
				}
				for b, triple := range combineBlock(rep, nil, pair, pairs[a+1:]) {
					k := j + 1 + b
					want := horizontalSupport(itemset.New(itemset.Item(i), itemset.Item(j), itemset.Item(k)))
					if triple.Support() != want {
						t.Errorf("%v support({%d,%d,%d}) = %d, want %d", kind, i, j, k, triple.Support(), want)
					}
				}
			}
		}
	}
}

func TestDiffsetPaperIdentities(t *testing.T) {
	rec := exampleRecoded(t, 1)
	rep := New(Diffset)
	tidRep := New(Tidset)
	droots := rep.Roots(rec)
	troots := tidRep.Roots(rec)
	nTrans := rec.DB.NumTransactions()
	// A root holds the shorter of t(x) and d(x) = D − t(x), with the
	// support identity of its side.
	for i := range droots {
		d := droots[i].(*DiffsetNode)
		tt := troots[i].(*TidsetNode)
		if 2*len(tt.TIDs) <= nTrans {
			if !d.tids || !d.Diff.Equal(tt.TIDs) {
				t.Errorf("item %d (sparse): root != tidset", i)
			}
			if d.Support() != len(d.Diff) {
				t.Errorf("item %d: support identity broken", i)
			}
			continue
		}
		if d.tids || !d.Diff.Equal(tt.TIDs.Complement(nTrans)) {
			t.Errorf("item %d (dense): root != complement of tidset", i)
		}
		if d.Support() != nTrans-len(d.Diff) {
			t.Errorf("item %d: support identity broken", i)
		}
	}
	// After one combine: d(XY) = t(X) − t(Y) (duality), and the support
	// matches the tidset intersection.
	for i := 0; i < len(droots); i++ {
		for j := i + 1; j < len(droots); j++ {
			dxy := combineBlock(rep, nil, droots[i], droots[j:j+1])[0].(*DiffsetNode)
			tx := troots[i].(*TidsetNode).TIDs
			ty := troots[j].(*TidsetNode).TIDs
			if !dxy.Diff.Equal(tx.Diff(ty)) {
				t.Errorf("d(%d,%d) != t(%d)−t(%d)", i, j, i, j)
			}
			if dxy.Support() != len(tx.Intersect(ty)) {
				t.Errorf("support(%d,%d) = %d, want %d", i, j, dxy.Support(), len(tx.Intersect(ty)))
			}
		}
	}
}

// TestDiffsetShrinks: on dense data, diffsets after the first combine are
// no larger than the prefix tidset — the paper's memory argument.
func TestDiffsetFootprintSmallerOnDenseData(t *testing.T) {
	rec := exampleRecoded(t, 3)
	dRoots := New(Diffset).Roots(rec)
	tRoots := New(Tidset).Roots(rec)
	var dBytes, tBytes int
	for i := range dRoots {
		dBytes += int(NodesBytes(combineBlock(New(Diffset), nil, dRoots[i], dRoots[i+1:])))
		tBytes += int(NodesBytes(combineBlock(New(Tidset), nil, tRoots[i], tRoots[i+1:])))
	}
	if dBytes >= tBytes {
		t.Errorf("2-itemset diffsets (%dB) not smaller than tidsets (%dB) on dense data", dBytes, tBytes)
	}
}

func TestBytesAccounting(t *testing.T) {
	rec := exampleRecoded(t, 1)
	tn := New(Tidset).Roots(rec)[0].(*TidsetNode)
	if tn.Bytes() != 4*len(tn.TIDs) {
		t.Error("tidset Bytes mismatch")
	}
	bn := New(Bitvector).Roots(rec)[0].(*BitvectorNode)
	if bn.Bytes() != 8*bn.Bits.Words() {
		t.Error("bitvector Bytes mismatch")
	}
	if got := CombineCost(tn, tn); got != 2*tn.Bytes() {
		t.Errorf("CombineCost = %d", got)
	}

	// Nodeset level 2, in blocks of every later root and of one: a pair
	// the matrix puts below minsup is born support-only (empty DN, zero
	// bytes); a frequent pair carries its full DiffNodeset, charged at
	// its real size. At minsup 4 the example has both kinds of pair.
	rec = exampleRecoded(t, 4)
	rep := New(Nodeset)
	roots := rep.Roots(rec)
	var infrequent, frequent int
	for i := range roots {
		x := roots[i].(*NodesetNode)
		many := combineBlock(rep, NewArena(0), x, roots[i+1:])
		for j := i + 1; j < len(roots); j++ {
			y := roots[j].(*NodesetNode)
			sup := len(rowTIDs(rec, []int{i, j}, -1))
			want, _ := nodeset.DiffL1Into(x.L1, y.L1, nil, nil)
			for _, c := range []struct {
				path string
				n    Node
			}{
				{"one sibling", combineBlock(rep, NewArena(0), x, roots[j:j+1])[0]},
				{"block", many[j-i-1]},
			} {
				nd := c.n.(*NodesetNode)
				if nd.Support() != sup {
					t.Errorf("%s {%d,%d}: support %d, want %d", c.path, i, j, nd.Support(), sup)
				}
				if sup < rec.MinSup {
					infrequent++
					if len(nd.DN) != 0 || nd.Bytes() != 0 {
						t.Errorf("%s {%d,%d}: infrequent pair has %d entries, %d bytes; want none",
							c.path, i, j, len(nd.DN), nd.Bytes())
					}
					continue
				}
				frequent++
				if !slices.Equal(nd.DN, want) || nd.Bytes() != nodeset.EntryBytes*len(want) {
					t.Errorf("%s {%d,%d}: DN %v (%d bytes), want %v (%d bytes)",
						c.path, i, j, nd.DN, nd.Bytes(), want, nodeset.EntryBytes*len(want))
				}
			}
		}
	}
	if infrequent == 0 || frequent == 0 {
		t.Fatalf("fixture has %d infrequent and %d frequent pair nodes; want both", infrequent, frequent)
	}
}

// Property test: on random databases, all three representations give the
// rows' support for arbitrary combine chains.
func TestQuickRepresentationAgreement(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := &dataset.DB{Name: "rand"}
		nTrans := 10 + r.Intn(60)
		nItems := 4 + r.Intn(6)
		for i := 0; i < nTrans; i++ {
			var items []itemset.Item
			for it := 0; it < nItems; it++ {
				if r.Intn(3) > 0 {
					items = append(items, itemset.Item(it))
				}
			}
			if len(items) == 0 {
				items = append(items, itemset.Item(r.Intn(nItems)))
			}
			db.Transactions = append(db.Transactions, itemset.New(items...))
		}
		rec := db.Recode(1)
		reps := []Representation{New(Tidset), New(Bitvector), New(Diffset)}
		roots := make([][]Node, len(reps))
		for i, rep := range reps {
			roots[i] = rep.Roots(rec)
		}
		n := len(rec.Items)
		if n < 3 {
			return true
		}
		// Random descending-combine chain: {a}, then {a,b}, {a,b,c}...
		// following the sibling-join discipline (same prefix).
		a := r.Intn(n - 2)
		b := a + 1 + r.Intn(n-a-2)
		c := b + 1 + r.Intn(n-b-1)
		want := len(rowTIDs(rec, []int{a, b, c}, -1))
		for i, rep := range reps {
			pairs := combineBlock(rep, nil, roots[i][a], []Node{roots[i][b], roots[i][c]})
			if combineBlock(rep, nil, pairs[0], pairs[1:])[0].Support() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("representation agreement: %v", err)
	}
}

// Support counting never goes negative, even on empty-diffset chains.
func TestDiffsetEmptyChain(t *testing.T) {
	db := &dataset.DB{Name: "tiny"}
	// Two identical transactions over items 0,1,2: every subset has
	// support 2, every diffset is empty.
	db.Transactions = []dataset.Transaction{itemset.New(0, 1, 2), itemset.New(0, 1, 2)}
	rec := db.Recode(1)
	rep := New(Diffset)
	roots := rep.Roots(rec)
	pairs := combineBlock(rep, nil, roots[0], roots[1:3])
	abc := combineBlock(rep, nil, pairs[0], pairs[1:])[0]
	if abc.Support() != 2 {
		t.Errorf("support = %d, want 2", abc.Support())
	}
	if abc.Bytes() != 0 {
		t.Errorf("empty diffset has %d bytes", abc.Bytes())
	}
}

func TestTidsetSingleTransaction(t *testing.T) {
	db := &dataset.DB{Transactions: []dataset.Transaction{itemset.New(0, 1)}}
	rec := db.Recode(1)
	for _, kind := range Kinds() {
		rep := New(kind)
		roots := rep.Roots(rec)
		pair := combineBlock(rep, nil, roots[0], roots[1:2])[0]
		if pair.Support() != 1 {
			t.Errorf("%v: support = %d, want 1", kind, pair.Support())
		}
	}
}
