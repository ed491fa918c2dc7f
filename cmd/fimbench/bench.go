package main

import (
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/datasets"
	"repro/internal/obs/export"
)

// benchConfigs is the standardized real-hardware benchmark matrix: the
// paper's two dense datasets at their default supports, the preferred
// configuration of each algorithm family, plus Eclat under the
// work-stealing schedule (a variant cell carrying schedule "steal", so
// it never collides with the default cell) and the tiled and nodeset
// extensions under both miners. Frozen so BENCH_*.json files from
// different commits stay comparable.
var benchConfigs = []struct {
	algo  fim.Algorithm
	rep   fim.Representation
	sched string // "" = the algorithm's default schedule
}{
	{fim.Apriori, fim.Diffset, ""},
	{fim.Apriori, fim.Tidset, ""},
	{fim.Apriori, fim.Bitvector, ""},
	{fim.Eclat, fim.Diffset, ""},
	{fim.Eclat, fim.Tidset, ""},
	{fim.FPGrowth, fim.Diffset, ""},
	{fim.Eclat, fim.Diffset, "steal"},
	{fim.Eclat, fim.Tiled, ""},
	{fim.Apriori, fim.Tiled, ""},
	{fim.Eclat, fim.Nodeset, ""},
	{fim.Apriori, fim.Nodeset, ""},
}

var benchDatasets = []string{"chess", "mushroom"}

// loadCalibration applies the kernel calibration file named by the
// -calibration flag, falling back to the FIM_CALIBRATION environment
// variable, falling back to the compiled-in defaults. Calibration is
// speed-only — it never changes which itemsets are mined — so bench
// cells stay comparable across calibrated hosts.
func loadCalibration(path string) error {
	if path != "" {
		return fim.LoadCalibration(path)
	}
	if env := os.Getenv(fim.CalibrationEnv); env != "" {
		return fim.LoadCalibration(env)
	}
	return nil
}

// runBenchJSON runs the standardized suite on the host (real wall
// clock, not the simulator) and writes a fim-bench/v1 document to path.
// Peak live payload bytes come from the run's observer stream; each
// (dataset, config, threads) cell runs reps times and every rep is
// recorded, so consumers can aggregate however they like. names
// restricts the dataset set (CI benches mushroom only against the
// full committed baseline; benchdiff compares the common cells).
//
// A non-empty schedOverride runs only the default-schedule configs,
// each under that schedule, with the schedule recorded per cell — the
// way to produce a steal-mode file to diff against a default baseline
// (benchdiff -ignore-sched).
//
// batchOff disables the prefix-blocked batched combine kernels and
// records batch "off" per cell; diffing such a file against a default
// baseline (benchdiff -ignore-batch) is the batching A/B, with the
// exact-itemset check proving the two modes mine identical sets.
//
// A non-empty repOverride runs every algorithm of the default matrix
// once under that representation — variant cells are dropped, the rep
// dimension collapses (an algorithm appearing with several reps runs
// once), and FP-growth is skipped because it mines from its own tree
// and the representation is inert there. The override name is recorded
// per cell, so diffing such a file against a baseline (benchdiff
// -ignore-rep) is the representation A/B with the exact-itemset check
// proving both reps mine identical sets.
func runBenchJSON(path string, names []string, threads []int, scale float64, reps int, schedOverride string, batchOff bool, repOverride string) error {
	if len(threads) == 0 {
		threads = []int{1, 2, 4}
	}
	if reps < 1 {
		reps = 1
	}
	if len(names) == 0 {
		names = benchDatasets
	}
	var repK fim.Representation
	if repOverride != "" {
		var rerr error
		if repK, rerr = fim.ParseRepresentation(repOverride); rerr != nil {
			return fmt.Errorf("fimbench: %w", rerr)
		}
	}
	var results []export.Bench
	for _, name := range names {
		ds, err := datasets.Get(name)
		if err != nil {
			return err
		}
		db := ds.Build(scale * ds.ExperimentScale)
		seenAlgo := map[fim.Algorithm]bool{}
		for _, c := range benchConfigs {
			effRep, repName := c.rep, c.rep.String()
			if repOverride != "" {
				if c.sched != "" {
					continue // override replaces the variant cells
				}
				if c.algo == fim.FPGrowth {
					continue // FP-growth mines from its own tree; the rep is inert
				}
				if seenAlgo[c.algo] {
					continue // the rep dimension collapses under the override
				}
				seenAlgo[c.algo] = true
				effRep, repName = repK, repK.String()
			}
			schedName := c.sched
			if schedOverride != "" {
				if c.sched != "" {
					continue // override replaces the variant cells
				}
				schedName = schedOverride
			}
			for _, th := range threads {
				for rep := 1; rep <= reps; rep++ {
					b := export.NewReportBuilder()
					opt := fim.Options{
						Algorithm:      c.algo,
						Representation: effRep,
						Workers:        th,
						Observer:       b,
						DisableBatch:   batchOff,
					}
					if schedName != "" {
						if opt.SchedulePolicy, err = fim.ParseSchedulePolicy(schedName); err != nil {
							return fmt.Errorf("fimbench: %w", err)
						}
						opt.SetSchedule = true
					}
					start := time.Now()
					res, err := fim.Mine(db, ds.DefaultSupport, opt)
					if err != nil {
						return fmt.Errorf("fimbench: %s/%s x%d: %w", name, c.algo, th, err)
					}
					wall := time.Since(start)
					report := b.Report()
					batchName := ""
					if batchOff {
						batchName = "off"
					}
					results = append(results, export.Bench{
						Schema:         export.BenchSchema,
						Dataset:        name,
						Algorithm:      c.algo.String(),
						Representation: repName,
						Schedule:       schedName,
						Batch:          batchName,
						Threads:        th,
						Rep:            rep,
						WallSeconds:    wall.Seconds(),
						PeakBytes:      report.PeakLiveBytes,
						Itemsets:       int64(res.Len()),
					})
					sm := ""
					if schedName != "" {
						sm = "@" + schedName
					}
					fmt.Fprintf(os.Stderr, "bench %s %s/%s%s x%d rep%d: %.3fs peak=%d itemsets=%d\n",
						name, c.algo, repName, sm, th, rep, wall.Seconds(), report.PeakLiveBytes, res.Len())
				}
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export.WriteBenchFile(f, export.NewBenchFile(results)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
