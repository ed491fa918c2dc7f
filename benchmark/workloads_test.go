package main

import (
	"bytes"
	"math"
	"testing"

	fim "repro"
	"repro/internal/dataset"
	"repro/internal/datasets"
)

// testSize shrinks the workloads under -short.
func testSize() float64 {
	if testing.Short() {
		return 0.05
	}
	return 1
}

// TestSeedZeroIsCanonical guards the seed-0 inputs: they must be the
// internal/datasets builds byte for byte, so seed-0 answers stay those
// of the published-shape datasets.
func TestSeedZeroIsCanonical(t *testing.T) {
	size := testSize()
	for _, w := range workloads {
		d, err := datasets.Get(w.dataset)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := fim.WriteFIMI(&want, d.Build(w.scale*size)); err != nil {
			t.Fatal(err)
		}
		got, err := w.generate(0, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: seed-0 input differs from datasets.Get(%q).Build(%g)", w.name, w.dataset, w.scale*size)
		}
	}
}

// TestOtherSeedsKeepTheShape checks that another seed gives other rows
// of the same shape, and the same rows every time.
func TestOtherSeedsKeepTheShape(t *testing.T) {
	size := testSize()
	for _, w := range workloads {
		base, err := w.generate(0, size)
		if err != nil {
			t.Fatal(err)
		}
		one, err := w.generate(1, size)
		if err != nil {
			t.Fatal(err)
		}
		again, err := w.generate(1, size)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(base, one) {
			t.Errorf("%s: seed 1 gives the seed-0 input", w.name)
		}
		if !bytes.Equal(one, again) {
			t.Errorf("%s: seed 1 gives different inputs on two calls", w.name)
		}
		b, o := stats(t, base), stats(t, one)
		if b.NumTransactions != o.NumTransactions {
			t.Errorf("%s: %d rows at seed 1, %d at seed 0", w.name, o.NumTransactions, b.NumTransactions)
		}
		if !within(float64(o.NumItems), float64(b.NumItems), 0.05) {
			t.Errorf("%s: %d items at seed 1, %d at seed 0", w.name, o.NumItems, b.NumItems)
		}
		if !within(o.AvgLength, b.AvgLength, 0.05) {
			t.Errorf("%s: mean length %.2f at seed 1, %.2f at seed 0", w.name, o.AvgLength, b.AvgLength)
		}
	}
}

func stats(t *testing.T, text []byte) dataset.Stats {
	t.Helper()
	db, err := fim.ReadFIMI("t", bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return db.ComputeStats()
}

func within(got, want, frac float64) bool {
	return math.Abs(got-want) <= frac*math.Abs(want)
}
