package main

import (
	"strings"

	fim "repro"
	"repro/internal/vertical"
)

// metricDef declares one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are the metrics a user of fim.Mine sees, measured
// with no observer attached: ingest time, one wall time per cell, heap
// bytes allocated, and the peak live payload footprint. Failed mines are
// not a metric (it would read 0); they are the attempted/failed counts of
// the result line.
func endToEndMetrics() []metricDef {
	defs := []metricDef{{"setup_s", "s", lower}}
	for _, c := range cells {
		defs = append(defs, metricDef{c.name + "_s", "s", lower})
	}
	return append(defs,
		metricDef{"alloc_mb", "MB", lower},
		metricDef{"peak_live_mb", "MB", lower})
}

// directMetrics are the per-layer metrics timed by calling one layer's
// public function directly, outside any mine.
func directMetrics() []metricDef {
	defs := []metricDef{
		{"dataset.recode_s", "s", lower},
		{"dataset.recode_freq_s", "s", lower},
		{"dataset.frequent_items", "count", lower},
	}
	for _, k := range vertical.AllKinds() {
		defs = append(defs, metricDef{"vertical.roots_s." + k.String(), "s", lower})
	}
	for _, k := range vertical.AllKinds() {
		defs = append(defs, metricDef{"vertical.roots_mb." + k.String(), "MB", lower})
	}
	return append(defs, metricDef{"core.decode_s", "s", lower})
}

// crossMetrics are the per-layer metrics that compare several mines:
// the two-worker speedup over one worker, and the cost of observing.
func crossMetrics() []metricDef {
	return []metricDef{
		{"sched.speedup.eclat_diffset", "x", higher},
		{"obs.overhead_frac", "ratio", lower},
	}
}

// layerMetric is a per-layer metric derived from the observed mines of
// one cell: its event stream, stamped on receipt, and its kernel
// counters. The traced phase reports the median over the cell's mines.
type layerMetric struct {
	metricDef
	cell  string
	value func(m *observedMine) float64
}

// mineMetrics lists the event- and counter-derived per-layer metrics.
func mineMetrics() []layerMetric {
	var out []layerMetric
	// each adds prefix.<cell> for every named cell.
	each := func(prefix, unit, better string, names []string, f func(m *observedMine) float64) {
		for _, n := range names {
			out = append(out, layerMetric{metricDef{prefix + "." + n, unit, better}, n, f})
		}
	}
	// one adds a metric under its own name, derived from one cell.
	one := func(name, unit, better, cellName string, f func(m *observedMine) float64) {
		out = append(out, layerMetric{metricDef{name, unit, better}, cellName, f})
	}
	all := cellNames(func(cell) bool { return true })
	vert := cellNames(func(c cell) bool { return c.opt.Algorithm != fim.FPGrowth })
	eclat := cellNames(func(c cell) bool { return c.opt.Algorithm == fim.Eclat })
	apriori := cellNames(func(c cell) bool { return c.opt.Algorithm == fim.Apriori })

	each("vertical.materialized_mb", "MB", lower, vert, func(m *observedMine) float64 {
		var b int64
		for k, v := range m.counters {
			if strings.HasPrefix(k, "bytes_materialized_") {
				b += v
			}
		}
		return float64(b) / 1e6
	})
	each("vertical.arena_hit_frac", "ratio", higher, eclat, func(m *observedMine) float64 {
		return m.frac("arena_hits", "arena_hits", "arena_misses")
	})
	one("vertical.hybrid_flip_frac.eclat_hybrid", "ratio", higher, "eclat_hybrid", func(m *observedMine) float64 {
		return m.frac("hybrid_flips", "nodes_built_hybrid")
	})

	each("tidset.tids_compared", "count", lower,
		[]string{"eclat_tidset", "eclat_diffset", "eclat_hybrid", "apriori_diffset"}, counter("tids_compared"))
	one("tidset.gallop_frac.eclat_tidset", "ratio", higher, "eclat_tidset", func(m *observedMine) float64 {
		return m.frac("gallop_picks", "gallop_picks", "merge_picks")
	})
	one("tidset.summary_words_anded.eclat_tiled", "count", lower, "eclat_tiled", counter("summary_words_anded"))
	one("tidset.tiles_skipped_frac.eclat_tiled", "ratio", higher, "eclat_tiled", tilesSkippedFrac)

	bitvectors := []string{"eclat_bitvector", "apriori_bitvector"}
	each("bitvec.words_anded", "count", lower, bitvectors, counter("words_anded"))
	each("bitvec.tiles_skipped_frac", "ratio", higher, bitvectors, tilesSkippedFrac)

	one("nodeset.ppc_nodes_built.apriori_nodeset", "count", lower, "apriori_nodeset", counter("ppc_nodes_built"))
	one("nodeset.nlist_nodes_merged.apriori_nodeset", "count", lower, "apriori_nodeset", counter("nlist_nodes_merged"))

	// Candidate counts do not depend on the representation, so they are
	// read from one Apriori cell.
	one("apriori.candidates", "count", lower, "apriori_diffset", func(m *observedMine) float64 {
		return float64(m.aprioriTotals().generated)
	})
	one("apriori.pruned_frac", "ratio", higher, "apriori_diffset", func(m *observedMine) float64 {
		t := m.aprioriTotals()
		return ratio(float64(t.pruned), float64(t.generated))
	})
	one("apriori.frequent_frac", "ratio", higher, "apriori_diffset", func(m *observedMine) float64 {
		t := m.aprioriTotals()
		return ratio(float64(t.frequent), float64(t.generated-t.pruned))
	})
	// Generation and pruning run on the coordinator between one level's
	// level_end and the next level_start; counting runs in between.
	each("apriori.gen_s", "s", lower, apriori, func(m *observedMine) float64 {
		return m.aprioriTotals().gen.Seconds()
	})
	each("apriori.count_s", "s", lower, apriori, func(m *observedMine) float64 {
		return m.aprioriTotals().count.Seconds()
	})

	each("eclat.pairs_s", "s", lower, eclat, stageSeconds("eclat/pairs"))
	each("eclat.expand_s", "s", lower, eclat, stageSeconds("eclat/expand"))
	each("eclat.subtrees_s", "s", lower, eclat, stageSeconds("eclat/subtrees"))
	one("eclat.tasks", "count", higher, "eclat_diffset", func(m *observedMine) float64 {
		for _, s := range m.stages {
			if s.phase == "eclat/subtrees" {
				return float64(s.candidates)
			}
		}
		return 0
	})

	one("fpgrowth.items_s", "s", lower, "fpgrowth", stageSeconds("fpgrowth/items"))

	each("core.prologue_s", "s", lower, all, func(m *observedMine) float64 {
		return m.prologue().Seconds()
	})
	each("sched.imbalance", "ratio", lower, all, func(m *observedMine) float64 {
		return m.schedLoad().imbalance
	})
	each("sched.idle_frac", "ratio", lower, all, func(m *observedMine) float64 {
		return m.schedLoad().idle
	})
	each("runctl.peak_live_mb", "MB", lower, all, func(m *observedMine) float64 {
		return float64(m.peakLive) / 1e6
	})
	return out
}

// perLayerMetrics lists every per-layer metric in report order.
func perLayerMetrics() []metricDef {
	defs := directMetrics()
	for _, lm := range mineMetrics() {
		defs = append(defs, lm.metricDef)
	}
	return append(defs, crossMetrics()...)
}

func cellNames(keep func(cell) bool) []string {
	var out []string
	for _, c := range cells {
		if keep(c) {
			out = append(out, c.name)
		}
	}
	return out
}

func counter(key string) func(m *observedMine) float64 {
	return func(m *observedMine) float64 { return float64(m.counters[key]) }
}

func stageSeconds(prefix string) func(m *observedMine) float64 {
	return func(m *observedMine) float64 {
		var d float64
		for _, s := range m.stages {
			if strings.HasPrefix(s.phase, prefix) {
				d += (s.end - s.start).Seconds()
			}
		}
		return d
	}
}

// tilesSkippedFrac is the share of tile pairs (tiled layout) or parent
// strips (bitvector batch kernel) the summary prefilter skipped.
func tilesSkippedFrac(m *observedMine) float64 {
	return m.frac("tiles_skipped", "tiles_skipped", "tiles_sparse", "tiles_dense")
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
