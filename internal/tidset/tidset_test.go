package tidset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kcount"
)

func TestNewSortsAndDeduplicates(t *testing.T) {
	s := New(5, 1, 3, 1, 5)
	if !s.Equal(Set{1, 3, 5}) {
		t.Errorf("New = %v", s)
	}
	if New().Support() != 0 {
		t.Error("empty set has nonzero support")
	}
}

func TestContains(t *testing.T) {
	s := New(2, 4, 9)
	for _, tid := range []TID{2, 4, 9} {
		if !s.Contains(tid) {
			t.Errorf("Contains(%d) = false", tid)
		}
	}
	for _, tid := range []TID{0, 3, 10} {
		if s.Contains(tid) {
			t.Errorf("Contains(%d) = true", tid)
		}
	}
}

func TestIntersectBasic(t *testing.T) {
	cases := []struct{ a, b, want Set }{
		{New(), New(), New()},
		{New(1, 2, 3), New(), New()},
		{New(1, 2, 3), New(2, 3, 4), New(2, 3)},
		{New(1, 3, 5), New(2, 4, 6), New()},
		{New(1, 2, 3), New(1, 2, 3), New(1, 2, 3)},
	}
	for _, c := range cases {
		if got := c.a.Intersect(c.b); !got.Equal(c.want) {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Intersect(c.a); !got.Equal(c.want) {
			t.Errorf("commuted %v ∩ %v = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestGallopIntersectMatchesMerge(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	// Short set vs long set: forces the galloping path (ratio >= 16).
	long := make([]TID, 0, 4096)
	for i := 0; i < 4096; i++ {
		if r.Intn(3) > 0 {
			long = append(long, TID(i))
		}
	}
	longSet := New(long...)
	for trial := 0; trial < 50; trial++ {
		short := make([]TID, 0, 8)
		for i := 0; i < 8; i++ {
			short = append(short, TID(r.Intn(4200)))
		}
		shortSet := New(short...)
		got := shortSet.Intersect(longSet)
		// Reference by Contains.
		var want Set
		for _, x := range shortSet {
			if longSet.Contains(x) {
				want = append(want, x)
			}
		}
		if !got.Equal(New(want...)) {
			t.Fatalf("gallop intersect mismatch: got %v want %v", got, want)
		}
	}
}

// TestIntersectSwitchesAtGallopRatio: IntersectInto merges while the
// long operand is under gallopRatio times the short one and gallops
// from that ratio up, in either operand order, and both strategies
// return the Contains reference.
func TestIntersectSwitchesAtGallopRatio(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	draw := func(n, universe int) Set {
		tids := make([]TID, n)
		for i, x := range r.Perm(universe)[:n] {
			tids[i] = TID(x)
		}
		return New(tids...)
	}
	const short = 64
	for _, c := range []struct {
		ratio               int
		wantMerge, wantGall int64
	}{
		{gallopRatio - 1, 1, 0},
		{gallopRatio, 0, 1},
	} {
		a := draw(short, 2*c.ratio*short)
		b := draw(c.ratio*short, 2*c.ratio*short)
		var want Set
		for _, x := range a {
			if b.Contains(x) {
				want = append(want, x)
			}
		}
		for _, ops := range [][2]Set{{a, b}, {b, a}} {
			var st kcount.Stats
			got := ops[0].IntersectInto(ops[1], nil, &st)
			if !got.Equal(New(want...)) {
				t.Errorf("ratio %d: got %v, want %v", c.ratio, got, want)
			}
			if st.MergePicks != c.wantMerge || st.GallopPicks != c.wantGall {
				t.Errorf("ratio %d: merge/gallop picks %d/%d, want %d/%d",
					c.ratio, st.MergePicks, st.GallopPicks, c.wantMerge, c.wantGall)
			}
		}
	}
}

func TestDiff(t *testing.T) {
	cases := []struct{ a, b, want Set }{
		{New(), New(), New()},
		{New(1, 2, 3), New(), New(1, 2, 3)},
		{New(1, 2, 3), New(2), New(1, 3)},
		{New(1, 2, 3), New(1, 2, 3), New()},
		{New(1, 2, 3), New(4, 5), New(1, 2, 3)},
	}
	for _, c := range cases {
		if got := c.a.Diff(c.b); !got.Equal(c.want) {
			t.Errorf("%v \\ %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestUnion(t *testing.T) {
	if got := New(1, 3).Union(New(2, 3, 4)); !got.Equal(New(1, 2, 3, 4)) {
		t.Errorf("Union = %v", got)
	}
}

func TestComplement(t *testing.T) {
	s := New(1, 3)
	if got := s.Complement(5); !got.Equal(New(0, 2, 4)) {
		t.Errorf("Complement = %v", got)
	}
	if got := New().Complement(3); !got.Equal(New(0, 1, 2)) {
		t.Errorf("Complement of empty = %v", got)
	}
	if got := New(0, 1, 2).Complement(3); got.Support() != 0 {
		t.Errorf("Complement of full = %v", got)
	}
}

func TestIntoFormsReuseBuffer(t *testing.T) {
	a, b := New(1, 2, 3, 4), New(2, 4, 6)
	buf := make(Set, 0, 8)
	got := a.IntersectInto(b, buf, nil)
	if !got.Equal(New(2, 4)) {
		t.Errorf("IntersectInto = %v", got)
	}
	if cap(got) != cap(buf) {
		t.Error("IntersectInto reallocated despite sufficient capacity")
	}
	got = a.DiffInto(b, buf, nil)
	if !got.Equal(New(1, 3)) {
		t.Errorf("DiffInto = %v", got)
	}
}

// diffsetIdentity checks the tidset/diffset duality the paper's Equation 1
// rests on: for parents PX, PY with diffsets relative to prefix P,
// d(PXY) = d(PY) \ d(PX) equals t(PX) \ t(PY).
func TestDiffsetDuality(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 200
	for trial := 0; trial < 100; trial++ {
		tp := randomSet(r, n)                // t(P)
		tpx := tp.Intersect(randomSet(r, n)) // t(PX) ⊆ t(P)
		tpy := tp.Intersect(randomSet(r, n)) // t(PY) ⊆ t(P)
		dpx := tp.Diff(tpx)                  // d(PX) = t(P) \ t(PX)
		dpy := tp.Diff(tpy)
		dpxy := dpy.Diff(dpx)
		want := tpx.Diff(tpy)
		if !dpxy.Equal(want) {
			t.Fatalf("duality violated: d=%v want %v", dpxy, want)
		}
		// support(PXY) = support(PX) - |d(PXY)|
		if got := tpx.Support() - dpxy.Support(); got != tpx.Intersect(tpy).Support() {
			t.Fatalf("support identity violated: %d vs %d", got, tpx.Intersect(tpy).Support())
		}
	}
}

func randomSet(r *rand.Rand, n int) Set {
	tids := make([]TID, 0, n/2)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			tids = append(tids, TID(i))
		}
	}
	return New(tids...)
}

func TestQuickLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	law := func(sa, sb int64) bool {
		a := randomSet(rand.New(rand.NewSource(sa)), 64)
		b := randomSet(rand.New(rand.NewSource(sb)), 64)
		// inclusion-exclusion
		if a.Intersect(b).Support()+a.Union(b).Support() != a.Support()+b.Support() {
			return false
		}
		// A = (A\B) ∪ (A∩B), disjointly
		d, i := a.Diff(b), a.Intersect(b)
		if len(d.Intersect(i)) != 0 {
			return false
		}
		return d.Union(i).Equal(a)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("set laws: %v", err)
	}
	// Complement is an involution and partitions the universe.
	law2 := func(seed int64) bool {
		a := randomSet(rand.New(rand.NewSource(seed)), 64)
		c := a.Complement(64)
		if len(a.Intersect(c)) != 0 || a.Support()+c.Support() != 64 {
			return false
		}
		return c.Complement(64).Equal(a)
	}
	if err := quick.Check(law2, cfg); err != nil {
		t.Errorf("complement laws: %v", err)
	}
	// UnionComplementInto is the complement of the union.
	law4 := func(sa, sb int64) bool {
		a := randomSet(rand.New(rand.NewSource(sa)), 64)
		b := randomSet(rand.New(rand.NewSource(sb)), 64)
		return a.UnionComplementInto(b, 64, nil, nil).Equal(a.Union(b).Complement(64))
	}
	if err := quick.Check(law4, cfg); err != nil {
		t.Errorf("union-complement law: %v", err)
	}
	// Sortedness is preserved by every operation.
	law3 := func(sa, sb int64) bool {
		a := randomSet(rand.New(rand.NewSource(sa)), 64)
		b := randomSet(rand.New(rand.NewSource(sb)), 64)
		return a.Intersect(b).IsSorted() && a.Diff(b).IsSorted() && a.Union(b).IsSorted()
	}
	if err := quick.Check(law3, cfg); err != nil {
		t.Errorf("sortedness: %v", err)
	}
}

func benchSets(density float64, n int) (Set, Set) {
	r := rand.New(rand.NewSource(3))
	var a, b Set
	for i := 0; i < n; i++ {
		if r.Float64() < density {
			a = append(a, TID(i))
		}
		if r.Float64() < density {
			b = append(b, TID(i))
		}
	}
	return a, b
}

// The Intersect / IntersectInto / gallop trio: same dense inputs for
// the first two, so the only difference is where the result lives —
// the allocating form pays one allocation per combine, the Into form
// reuses the caller's buffer (allocs/op 0 at steady state). The
// skewed-gallop benchmark covers the binary-search path the Into form
// takes when the operand sizes diverge.

func BenchmarkIntersectAlloc(b *testing.B) {
	x, y := benchSets(0.5, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Intersect(y)
	}
}

func BenchmarkIntersectInto(b *testing.B) {
	x, y := benchSets(0.5, 1<<16)
	buf := make(Set, 0, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = x.IntersectInto(y, buf, nil)
	}
}

func BenchmarkDiffAlloc(b *testing.B) {
	x, y := benchSets(0.5, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Diff(y)
	}
}

func BenchmarkDiffDense(b *testing.B) {
	x, y := benchSets(0.5, 1<<16)
	buf := make(Set, 0, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = x.DiffInto(y, buf, nil)
	}
}

func BenchmarkIntersectSkewedGallop(b *testing.B) {
	long, _ := benchSets(0.9, 1<<16)
	short := New(5, 999, 20000, 40000, 65000)
	buf := make(Set, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = short.IntersectInto(long, buf, nil)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(1, 2, 3)
	c := a.Clone()
	c[0] = 9
	if a[0] != 1 {
		t.Error("Clone shares storage")
	}
	if !New().Clone().Equal(New()) {
		t.Error("empty clone")
	}
}

func TestWords(t *testing.T) {
	if New(1, 2, 3).Words() != 3 {
		t.Error("Words")
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if New(1, 2).Equal(New(1)) {
		t.Error("different lengths equal")
	}
	if New(1, 2).Equal(New(1, 3)) {
		t.Error("different contents equal")
	}
}

func TestIsSortedDetectsViolations(t *testing.T) {
	if (Set{2, 1}).IsSorted() {
		t.Error("unsorted set passes IsSorted")
	}
	if (Set{1, 1}).IsSorted() {
		t.Error("duplicate set passes IsSorted")
	}
}
