// Package kcount provides the kernel operation counters for the
// vertical-representation hot paths: tidset merge/gallop intersection
// steps, bitvector word ANDs and popcounts, and per-representation node
// materialization. These are the operation-level quantities the paper's
// analysis attributes cost to (§II-B's kernel comparison; Zymbler's
// many-core Apriori study argues scaling cliffs from exactly such
// per-kernel counts), observable on a live run instead of inferred from
// wall time.
//
// A Stats value is one shard of counts. Each mining worker counts into
// its own shard (the one its combine arena owns) with plain adds, and
// the miner sums the shards once the team has joined, so a run's
// counts are exact however many other runs overlap it. The kernels
// take the shard as an argument; a nil *Stats records nothing, which is
// how callers outside a mine (tests, benchmarks) run them. An
// unobserved run still counts into its arenas' shards, a few plain adds
// per kernel call, but has no run total to sum them into. The Add
// methods take counts the kernels already computed (loop exit indices,
// slice lengths), never per-element increments.
package kcount

// Kind indexes the per-representation counters. The values mirror
// vertical.Kind's order; kcount redeclares them (as plain ints) so the
// kernels below vertical in the import graph can use the package too.
const (
	Tidset = iota
	Bitvector
	Diffset
	Hybrid
	Tiled
	Nodeset
	numKinds
)

// kindNames are the wire names used by Stats.Map, matching
// vertical.Kind.String().
var kindNames = [numKinds]string{"tidset", "bitvector", "diffset", "hybrid", "tiled", "nodeset"}

// Stats is one shard of the counters. The zero value is empty. A shard
// is not safe for concurrent use: each worker owns one.
type Stats struct {
	// TidsCompared counts merge-loop steps across tidset intersection
	// and difference — the element comparisons of the sorted-set
	// kernels.
	TidsCompared int64
	// MergePicks and GallopPicks count tidset intersections dispatched
	// to the linear merge vs the exponential-search (galloping) path.
	MergePicks  int64
	GallopPicks int64
	// GallopProbes counts elements probed by binary search on the
	// galloping path (one probe sequence per short-side element).
	GallopProbes int64
	// WordsANDed and WordsPopcounted count 64-bit word operations in
	// the bitvector AND and popcount kernels.
	WordsANDed      int64
	WordsPopcounted int64
	// NodesBuilt and BytesMaterialized count, per representation kind,
	// the payload nodes built by vertical's CombineManyInto and by the
	// root build (charged by CountRoots), and their byte footprint at
	// construction.
	NodesBuilt        [numKinds]int64
	BytesMaterialized [numKinds]int64
	// HybridFlips counts hybrid nodes that chose the diffset form over
	// the tidset form at construction (the dEclat switch-over firing).
	HybridFlips int64
	// ArenaHits and ArenaMisses count scratch-arena node requests that
	// were served from a worker's free list vs. fell through to the Go
	// allocator — the zero-allocation combine path's figure of merit.
	ArenaHits   int64
	ArenaMisses int64
	// BatchCalls counts invocations of the batched (prefix-blocked)
	// combine kernels: one call intersects/subtracts/ANDs a resident
	// parent against an entire sibling run.
	BatchCalls int64
	// ParentWordsSaved counts the parent payload words the batched
	// kernels did NOT re-stream: a batch of m children reads the shared
	// parent once instead of m times, saving (m−1) × parent words. This
	// is the measurable proxy for the paper's §V parent-traffic
	// argument. Units are payload words (4-byte for tidset/diffset,
	// 8-byte for bitvector).
	ParentWordsSaved int64
	// TilesProcessed counts word tiles the strip-mined bitvector batch
	// kernel streamed (one tile ANDed+popcounted against every child of
	// the run before eviction).
	TilesProcessed int64
	// SummaryWordsANDed counts the 64-bit occupancy-summary ANDs of the
	// tiled layout's prefilter phase: one per key-aligned tile pair.
	// Comparing it against TidsCompared/WordsANDed for the same mine
	// shows how much traffic the prefilter stands in front of.
	SummaryWordsANDed int64
	// TilesSkipped counts key-aligned tile pairs whose summary AND came
	// back zero, so the in-tile kernel never ran — the tiled layout's
	// analogue of parent_words_saved. TilesSparse and TilesDense count
	// the pairs that did run, split by which in-tile kernel fired
	// (sparse u8 merge/probe vs. branch-free bitmap AND); the same
	// split is charged by bitvec.AndManyInto's strip classifier.
	TilesSkipped int64
	TilesSparse  int64
	TilesDense   int64
	// NListNodesMerged counts entries touched by the DiffNodeset merge
	// kernels (2-itemset ancestor merges and k-itemset differences) —
	// the nodeset analogue of TidsCompared, except the unit is a PPC
	// tree node, which stands for every transaction sharing its path.
	NListNodesMerged int64
	// PPCNodesBuilt counts prefix-tree nodes assigned pre/post ranks by
	// the PPC encoding pass. Comparing it against the database's
	// transaction-item count shows the tree's co-occurrence compression.
	PPCNodesBuilt int64
}

// Map renders the non-zero counters under stable wire names — the
// key set of the kernel_counters event and the run report's
// kernel_counters object.
func (s Stats) Map() map[string]int64 {
	m := map[string]int64{}
	put := func(k string, v int64) {
		if v != 0 {
			m[k] = v
		}
	}
	put("tids_compared", s.TidsCompared)
	put("merge_picks", s.MergePicks)
	put("gallop_picks", s.GallopPicks)
	put("gallop_probes", s.GallopProbes)
	put("words_anded", s.WordsANDed)
	put("words_popcounted", s.WordsPopcounted)
	put("hybrid_flips", s.HybridFlips)
	put("arena_hits", s.ArenaHits)
	put("arena_misses", s.ArenaMisses)
	put("batch_calls", s.BatchCalls)
	put("parent_words_saved", s.ParentWordsSaved)
	put("tiles_processed", s.TilesProcessed)
	put("summary_words_anded", s.SummaryWordsANDed)
	put("tiles_skipped", s.TilesSkipped)
	put("tiles_sparse", s.TilesSparse)
	put("tiles_dense", s.TilesDense)
	put("nlist_nodes_merged", s.NListNodesMerged)
	put("ppc_nodes_built", s.PPCNodesBuilt)
	for k := 0; k < numKinds; k++ {
		put("nodes_built_"+kindNames[k], s.NodesBuilt[k])
		put("bytes_materialized_"+kindNames[k], s.BytesMaterialized[k])
	}
	return m
}

// Merge adds every counter of o into s. Nil-safe on either side.
func (s *Stats) Merge(o *Stats) {
	if s == nil || o == nil {
		return
	}
	s.TidsCompared += o.TidsCompared
	s.MergePicks += o.MergePicks
	s.GallopPicks += o.GallopPicks
	s.GallopProbes += o.GallopProbes
	s.WordsANDed += o.WordsANDed
	s.WordsPopcounted += o.WordsPopcounted
	s.HybridFlips += o.HybridFlips
	s.ArenaHits += o.ArenaHits
	s.ArenaMisses += o.ArenaMisses
	s.BatchCalls += o.BatchCalls
	s.ParentWordsSaved += o.ParentWordsSaved
	s.TilesProcessed += o.TilesProcessed
	s.SummaryWordsANDed += o.SummaryWordsANDed
	s.TilesSkipped += o.TilesSkipped
	s.TilesSparse += o.TilesSparse
	s.TilesDense += o.TilesDense
	s.NListNodesMerged += o.NListNodesMerged
	s.PPCNodesBuilt += o.PPCNodesBuilt
	for k := 0; k < numKinds; k++ {
		s.NodesBuilt[k] += o.NodesBuilt[k]
		s.BytesMaterialized[k] += o.BytesMaterialized[k]
	}
}

// The Add methods are the kernels' emit sites. Each is a no-op on a
// nil shard.

// AddMergeSteps accounts steps of a sorted-set merge loop (intersect
// or diff).
func (s *Stats) AddMergeSteps(steps int) {
	if s != nil {
		s.TidsCompared += int64(steps)
		s.MergePicks++
	}
}

// AddGallop accounts one galloping intersection: probes binary-search
// sequences (one per short-side element) and steps elements compared.
func (s *Stats) AddGallop(probes, steps int) {
	if s != nil {
		s.GallopPicks++
		s.GallopProbes += int64(probes)
		s.TidsCompared += int64(steps)
	}
}

// AddWords accounts one bitvector kernel's word operations: anded
// 64-bit ANDs and popcounted 64-bit popcounts.
func (s *Stats) AddWords(anded, popcounted int) {
	if s != nil {
		s.WordsANDed += int64(anded)
		s.WordsPopcounted += int64(popcounted)
	}
}

// AddNode accounts one materialized payload node of the given kind and
// byte footprint.
func (s *Stats) AddNode(kind, bytes int) {
	if s != nil && kind >= 0 && kind < numKinds {
		s.NodesBuilt[kind]++
		s.BytesMaterialized[kind] += int64(bytes)
	}
}

// AddNodes accounts n materialized payload nodes of one kind totalling
// bytes — the batched form of AddNode.
func (s *Stats) AddNodes(kind, n, bytes int) {
	if s != nil && kind >= 0 && kind < numKinds {
		s.NodesBuilt[kind] += int64(n)
		s.BytesMaterialized[kind] += int64(bytes)
	}
}

// AddHybridFlip accounts one hybrid node that stored the diffset form.
func (s *Stats) AddHybridFlip() {
	if s != nil {
		s.HybridFlips++
	}
}

// AddBatch accounts one batched combine kernel call over m children of
// a parent of parentWords payload words: one pairwise kernel call per
// child would have streamed the parent m times, so (m−1) × parentWords words of parent
// traffic were saved.
func (s *Stats) AddBatch(m, parentWords int) {
	if s != nil {
		s.BatchCalls++
		if m > 1 {
			s.ParentWordsSaved += int64(m-1) * int64(parentWords)
		}
	}
}

// AddTiles accounts one tiled kernel call from loop-local tallies:
// summary prefilter word ANDs, tile pairs the prefilter skipped, and
// tile pairs that ran the sparse vs. dense in-tile kernel.
func (s *Stats) AddTiles(summaryANDs, skipped, sparse, dense int) {
	if s != nil {
		s.SummaryWordsANDed += int64(summaryANDs)
		s.TilesSkipped += int64(skipped)
		s.TilesSparse += int64(sparse)
		s.TilesDense += int64(dense)
	}
}

// AddStrips accounts the strip-mined bitvector batch kernel's strips,
// split by class: strips of the resident parent that were entirely zero
// (children cleared without streaming), handled on the sparse
// nonzero-word path, or streamed densely. The classes land on the
// tiles_* counters so the bitvector rep shares the tiled layout's
// evidence trail; their sum is tiles_processed.
func (s *Stats) AddStrips(skipped, sparse, dense int) {
	if s != nil {
		s.TilesProcessed += int64(skipped + sparse + dense)
		s.AddTiles(0, skipped, sparse, dense)
	}
}

// AddNListMerge accounts the entries one DiffNodeset merge kernel call
// touched (loop exit indices, never per-element increments).
func (s *Stats) AddNListMerge(steps int) {
	if s != nil {
		s.NListNodesMerged += int64(steps)
	}
}

// AddPPCNodes accounts the prefix-tree nodes one PPC encoding pass
// assigned pre/post ranks to.
func (s *Stats) AddPPCNodes(n int) {
	if s != nil {
		s.PPCNodesBuilt += int64(n)
	}
}
