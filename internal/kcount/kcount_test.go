package kcount

import (
	"sync"
	"testing"
)

// addAll charges one of everything, the same amounts on every call.
func addAll(s *Stats) {
	s.AddMergeSteps(10)
	s.AddMergeSteps(5)
	s.AddGallop(3, 7)
	s.AddWords(4, 6)
	s.AddNode(Diffset, 128)
	s.AddNode(Diffset, 32)
	s.AddNodes(Hybrid, 2, 8)
	s.AddHybridFlip()
	s.AddBatch(3, 10)
	s.AddTiles(9, 1, 2, 3)
	s.AddStrips(1, 1, 1)
	s.AddNListMerge(11)
	s.AddPPCNodes(12)
}

// TestDisabledNoOp: a nil shard — how an unobserved run counts — records
// nothing and does not panic, on either side of Merge.
func TestDisabledNoOp(t *testing.T) {
	var s *Stats
	addAll(s)
	s.Merge(&Stats{TidsCompared: 1})
	var z Stats
	z.Merge(nil)
	if m := z.Map(); len(m) != 0 {
		t.Fatalf("Merge(nil) recorded %v", m)
	}
}

// TestShardMapWireNames: a shard accumulates with plain adds, and Map
// emits exactly the non-zero counters under their wire names.
func TestShardMapWireNames(t *testing.T) {
	var s Stats
	addAll(&s)
	want := map[string]int64{
		"tids_compared":              15 + 7, // merge steps + gallop steps
		"merge_picks":                2,      // two merge dispatches
		"gallop_picks":               1,      // one gallop dispatch
		"gallop_probes":              3,
		"words_anded":                4,
		"words_popcounted":           6,
		"nodes_built_diffset":        2,
		"bytes_materialized_diffset": 160,
		"nodes_built_hybrid":         2,
		"bytes_materialized_hybrid":  8,
		"hybrid_flips":               1,
		"batch_calls":                1,
		"parent_words_saved":         20, // (3−1) × 10
		"summary_words_anded":        9,
		"tiles_skipped":              2, // tiled 1 + strip 1
		"tiles_sparse":               3,
		"tiles_dense":                4,
		"tiles_processed":            3, // the strips only
		"nlist_nodes_merged":         11,
		"ppc_nodes_built":            12,
	}
	m := s.Map()
	for k, v := range want {
		if m[k] != v {
			t.Errorf("Map()[%q] = %d, want %d", k, m[k], v)
		}
	}
	for k := range m {
		if _, ok := want[k]; !ok {
			t.Errorf("Map() has unexpected key %q = %d", k, m[k])
		}
	}
	s.ArenaHits, s.ArenaMisses = 5, 6
	if m := s.Map(); m["arena_hits"] != 5 || m["arena_misses"] != 6 {
		t.Errorf("arena counters map to %d/%d, want 5/6", m["arena_hits"], m["arena_misses"])
	}
}

// TestKindBounds: a node kind outside the mirrored range is ignored
// rather than indexing out of bounds or landing on another kind.
func TestKindBounds(t *testing.T) {
	var s Stats
	s.AddNode(-1, 8)
	s.AddNode(numKinds, 8)
	s.AddNodes(numKinds, 3, 8)
	if m := s.Map(); len(m) != 0 {
		t.Fatalf("out-of-range kinds recorded %v", m)
	}
	s.AddNode(Nodeset, 0)
	if m := s.Map(); m["nodes_built_nodeset"] != 1 || len(m) != 1 {
		t.Fatalf("zero-byte node: Map() = %v, want only nodes_built_nodeset = 1", m)
	}
}

// TestConcurrentAdds: concurrent workers each count into their own
// shard, and the shards summed after the join lose nothing; run with
// -race this verifies no shard is shared.
func TestConcurrentAdds(t *testing.T) {
	const workers = 8
	shards := make([]Stats, workers)
	var wg sync.WaitGroup
	for g := range shards {
		wg.Add(1)
		go func(s *Stats) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				addAll(s)
			}
		}(&shards[g])
	}
	wg.Wait()
	var total, one Stats
	for g := range shards {
		total.Merge(&shards[g])
	}
	addAll(&one)
	m, per := total.Map(), one.Map()
	for k, v := range per {
		if m[k] != v*workers*1000 {
			t.Errorf("%s = %d, want %d", k, m[k], v*workers*1000)
		}
	}
	if len(m) != len(per) {
		t.Errorf("summed shards have %d keys, want %d", len(m), len(per))
	}
}
