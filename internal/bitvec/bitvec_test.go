package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tidset"
)

func TestSetTestClearCount(t *testing.T) {
	v := New(130) // crosses two word boundaries
	tids := []tidset.TID{0, 1, 63, 64, 65, 127, 128, 129}
	for _, x := range tids {
		v.Set(x)
	}
	if got := v.Count(nil); got != len(tids) {
		t.Fatalf("Count = %d, want %d", got, len(tids))
	}
	for _, x := range tids {
		if !v.Test(x) {
			t.Errorf("Test(%d) = false", x)
		}
	}
	if v.Test(2) || v.Test(66) {
		t.Error("Test reports unset bits")
	}
	v.Clear(64)
	if v.Test(64) || v.Count(nil) != len(tids)-1 {
		t.Error("Clear failed")
	}
	if v.Test(500) {
		t.Error("Test out of range should be false")
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set out of range did not panic")
		}
	}()
	New(10).Set(10)
}

func TestZeroLength(t *testing.T) {
	v := New(0)
	if v.Count(nil) != 0 || v.Len() != 0 {
		t.Error("zero-length vector misbehaves")
	}
	if got := v.Not().Count(nil); got != 0 {
		t.Errorf("Not of empty = %d bits", got)
	}
}

func TestAndOrAndNot(t *testing.T) {
	a := FromTIDs(100, tidset.New(1, 2, 3, 70))
	b := FromTIDs(100, tidset.New(2, 3, 4, 99))
	if got := a.And(b).TIDs(); !got.Equal(tidset.New(2, 3)) {
		t.Errorf("And = %v", got)
	}
	if got := a.Or(b).TIDs(); !got.Equal(tidset.New(1, 2, 3, 4, 70, 99)) {
		t.Errorf("Or = %v", got)
	}
	if got := a.AndNot(b).TIDs(); !got.Equal(tidset.New(1, 70)) {
		t.Errorf("AndNot = %v", got)
	}
}

func TestNotMasksTail(t *testing.T) {
	v := FromTIDs(70, tidset.New(0, 69))
	n := v.Not()
	if got := n.Count(nil); got != 68 {
		t.Errorf("Not.Count = %d, want 68", got)
	}
	if n.Test(0) || n.Test(69) {
		t.Error("Not kept original bits")
	}
	// Complement again must return the original.
	if !n.Not().Equal(v) {
		t.Error("double Not is not identity")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("And with mismatched lengths did not panic")
		}
	}()
	New(64).And(New(65))
}

func TestTIDsRoundTrip(t *testing.T) {
	s := tidset.New(3, 64, 65, 190)
	v := FromTIDs(200, s)
	if got := v.TIDs(); !got.Equal(s) {
		t.Errorf("TIDs = %v, want %v", got, s)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	v := FromTIDs(100, tidset.New(1, 50, 99))
	var seen []tidset.TID
	v.Range(func(x tidset.TID) bool {
		seen = append(seen, x)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 50 {
		t.Errorf("Range early stop saw %v", seen)
	}
}

func TestIntoFormsMatchAllocating(t *testing.T) {
	a := FromTIDs(256, tidset.New(0, 100, 200, 255))
	b := FromTIDs(256, tidset.New(100, 255))
	scratch := New(256)
	if !scratch.AndInto(a, b, nil).Equal(a.And(b)) {
		t.Error("AndInto != And")
	}
	if !scratch.AndNotInto(a, b, nil).Equal(a.AndNot(b)) {
		t.Error("AndNotInto != AndNot")
	}
}

func randomTIDs(r *rand.Rand, n int) tidset.Set {
	var s tidset.Set
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s = append(s, tidset.TID(i))
		}
	}
	return s
}

// TestQuickAgreesWithTidset: bitvector ops must agree with tidset ops on
// random universes — the two representations are interchangeable views.
func TestQuickAgreesWithTidset(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	law := func(sa, sb int64, szRaw uint8) bool {
		n := int(szRaw)%150 + 1
		ra, rb := rand.New(rand.NewSource(sa)), rand.New(rand.NewSource(sb))
		ta, tb := randomTIDs(ra, n), randomTIDs(rb, n)
		va, vb := FromTIDs(n, ta), FromTIDs(n, tb)
		if !va.And(vb).TIDs().Equal(ta.Intersect(tb)) {
			return false
		}
		if !va.AndNot(vb).TIDs().Equal(ta.Diff(tb)) {
			return false
		}
		if !va.Or(vb).TIDs().Equal(ta.Union(tb)) {
			return false
		}
		if va.And(vb).Count(nil) != len(ta.Intersect(tb)) {
			return false
		}
		return va.Not().TIDs().Equal(ta.Complement(n))
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("bitvec/tidset agreement: %v", err)
	}
}

func BenchmarkAndInto(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	n := 1 << 16
	x := FromTIDs(n, randomTIDs(r, n))
	y := FromTIDs(n, randomTIDs(r, n))
	dst := New(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.AndInto(x, y, nil)
	}
}

func TestCloneAndEqual(t *testing.T) {
	v := FromTIDs(70, tidset.New(1, 69))
	c := v.Clone()
	if !c.Equal(v) {
		t.Error("clone not equal")
	}
	c.Set(5)
	if c.Equal(v) {
		t.Error("clone shares storage")
	}
	if v.Equal(New(71)) {
		t.Error("different lengths reported equal")
	}
}

func TestClearOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Clear out of range did not panic")
		}
	}()
	New(8).Clear(8)
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestRangeFullIteration(t *testing.T) {
	s := tidset.New(0, 63, 64, 127)
	v := FromTIDs(128, s)
	var got tidset.Set
	v.Range(func(x tidset.TID) bool { got = append(got, x); return true })
	if !got.Equal(s) {
		t.Errorf("Range visited %v", got)
	}
}
