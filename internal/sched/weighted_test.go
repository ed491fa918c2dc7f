package sched

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// drain collects every range a chunker deals to worker w.
func drain(c Chunker, w int) [][2]int {
	var out [][2]int
	for {
		lo, hi, ok := c.Next(w)
		if !ok {
			return out
		}
		out = append(out, [2]int{lo, hi})
	}
}

// TestWeightedStaticCoversExactly: the weighted partition is a
// disjoint, in-order, contiguous cover of [0, n) for random weights
// (including zero-weight iterations).
func TestWeightedStaticCoversExactly(t *testing.T) {
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(40)
		p := 1 + r.Intn(8)
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = int64(r.Intn(100))
		}
		c := newWeightedStaticChunker(n, p, weights)
		next := 0
		for w := 0; w < p; w++ {
			for _, ch := range drain(c, w) {
				if ch[0] != next || ch[1] <= ch[0] {
					return false
				}
				next = ch[1]
			}
		}
		return next == n
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("weighted static partition: %v", err)
	}
}

// TestWeightedStaticBalances: one enormous iteration gets a worker to
// itself; the equal-count split would have packed it with half the
// loop.
func TestWeightedStaticBalances(t *testing.T) {
	weights := make([]int64, 10)
	for i := range weights {
		weights[i] = 1
	}
	weights[0] = 1000
	c := newWeightedStaticChunker(10, 2, weights)
	w0 := drain(c, 0)
	if len(w0) != 1 || w0[0] != [2]int{0, 1} {
		t.Fatalf("worker 0 got %v, want only the heavy iteration [0,1)", w0)
	}
	w1 := drain(c, 1)
	if len(w1) != 1 || w1[0] != [2]int{1, 10} {
		t.Fatalf("worker 1 got %v, want the light tail [1,10)", w1)
	}
}

// TestWeightedStaticZeroTotal: all-zero weights degrade to the equal
// split rather than giving one worker everything.
func TestWeightedStaticZeroTotal(t *testing.T) {
	c := newWeightedStaticChunker(8, 2, make([]int64, 8))
	if w0 := drain(c, 0); len(w0) != 1 || w0[0] != [2]int{0, 4} {
		t.Fatalf("worker 0 got %v, want the equal split [0,4)", w0)
	}
}

// TestForWeightedCtxRunsAll: every iteration runs exactly once, under
// every schedule (non-static ones ignore the weights), with mismatched
// weight lengths degrading to the unweighted loop.
func TestForWeightedCtxRunsAll(t *testing.T) {
	for _, s := range []Schedule{
		{Policy: Static},
		{Policy: Static, Chunk: 2},
		{Policy: Dynamic},
		{Policy: Guided},
	} {
		for _, weights := range [][]int64{nil, {5, 1, 1, 9, 0, 3, 3, 2, 1, 7}} {
			const n = 10
			team := NewTeam(3)
			var counts [n]int64
			err := team.ForWeightedCtx(nil, nil, n, weights, s, func(_, i int) {
				atomic.AddInt64(&counts[i], 1)
			})
			if err != nil {
				t.Fatalf("%v weights=%v: %v", s, weights, err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("%v weights=%v: iteration %d ran %d times", s, weights, i, c)
				}
			}
		}
	}
}
