package trie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

// checkBlocks asserts the Blocks invariants: a sentinel-terminated,
// strictly increasing cover of [0, Len()) whose every block holds a
// single Px value and whose boundaries are exactly the Px change
// points.
func checkBlocks(t *testing.T, c *Candidates) {
	t.Helper()
	if len(c.Blocks) == 0 {
		t.Fatal("Blocks missing its sentinel")
	}
	if got := c.Blocks[len(c.Blocks)-1]; got != int32(c.Len()) {
		t.Fatalf("Blocks sentinel = %d, want %d", got, c.Len())
	}
	if c.Blocks[0] != 0 && c.Len() > 0 {
		t.Fatalf("first block starts at %d", c.Blocks[0])
	}
	for b := 0; b+1 < len(c.Blocks); b++ {
		lo, hi := c.Blocks[b], c.Blocks[b+1]
		if lo >= hi {
			t.Fatalf("block %d is empty or inverted: [%d, %d)", b, lo, hi)
		}
		for i := lo; i < hi; i++ {
			if c.Px[i] != c.Px[lo] {
				t.Fatalf("block %d mixes Px %d and %d", b, c.Px[lo], c.Px[i])
			}
		}
		if b > 0 && c.Px[lo] == c.Px[c.Blocks[b-1]] {
			t.Fatalf("blocks %d and %d share Px %d", b-1, b, c.Px[lo])
		}
	}
}

// randomTrie builds a trie with a committed random level 2, returning
// its level-3 candidates — the smallest shape where pruning can fire.
func randomTrie(r *rand.Rand) (*Trie, *Candidates) {
	n := 2 + r.Intn(10)
	tr := NewRoot(make([]int, n))
	c := tr.Generate()
	for i := 0; i < c.Len(); i++ {
		if r.Intn(2) == 0 {
			c.Level.Supports[i] = 1
		}
	}
	tr.Commit(c, 1)
	return tr, tr.Generate()
}

// TestBlocksInvariants: Generate and Prune's compaction both leave
// Blocks consistent with the Px runs, on random tries.
func TestBlocksInvariants(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr, c := randomTrie(r)
		checkBlocks(t, c)
		tr.Prune(c)
		checkBlocks(t, c)
	}
}

// TestBlocksEmpty: an empty generation still carries the sentinel.
func TestBlocksEmpty(t *testing.T) {
	c := NewRoot(nil).Generate()
	checkBlocks(t, c)
	if len(c.Blocks) != 1 {
		t.Fatalf("empty generation has %d block entries, want sentinel only", len(c.Blocks))
	}
}

// TestPruneParallelMatchesSerial: the team-parallel prune removes the
// identical candidate set (count AND rows) as the serial path, across
// random tries, team sizes, and schedules.
func TestPruneParallelMatchesSerial(t *testing.T) {
	schedules := []sched.Schedule{
		{Policy: sched.Static},
		{Policy: sched.Dynamic},
		{Policy: sched.Guided},
	}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		trSerial, cSerial := randomTrie(r)
		r = rand.New(rand.NewSource(seed))
		trPar, cPar := randomTrie(r)

		wantRemoved := trSerial.Prune(cSerial)
		pick := int(uint64(seed) % 12)
		team := sched.NewTeam(1 + pick%4)
		s := schedules[pick%len(schedules)]
		gotRemoved, err := trPar.PruneParallel(cPar, team, nil, s, nil)
		if err != nil || gotRemoved != wantRemoved || cPar.Len() != cSerial.Len() {
			return false
		}
		for i := 0; i < cPar.Len(); i++ {
			if cPar.Px[i] != cSerial.Px[i] || cPar.Py[i] != cSerial.Py[i] ||
				cPar.Level.Items[i] != cSerial.Level.Items[i] {
				return false
			}
		}
		checkBlocks(t, cPar)
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 120}); err != nil {
		t.Errorf("parallel prune diverges from serial: %v", err)
	}
}
