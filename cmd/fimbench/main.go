// Command fimbench regenerates every table and figure of the paper's
// evaluation, plus the DESIGN.md ablations, from the synthetic datasets
// and the simulated Blacklight machine.
//
// Usage:
//
//	fimbench -exp all
//	fimbench -exp table2+fig5 -scale 0.25
//	fimbench -exp eclat-tidset -threads 1,16,64,256
//
// Host wall-clock measurement is the repository benchmark's job
// (benchmark/, run with `bash benchmark/run.sh`), not this command's.
//
// Experiments: table1, table2+fig5 (apriori-diffset), table3+fig6
// (eclat-tidset), table6+fig7 (eclat-bitvector), table5+fig8
// (eclat-diffset), eclat-hybrid, apriori-flat, sparse-limit,
// schedule-ablation, chunk-ablation, depth-ablation, baselines,
// ht-ablation, memory-footprint, all. Every experiment mines through
// fim.Mine, as the other commands do.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/vertical"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see doc comment)")
	csv := flag.Bool("csv", false, "emit scalability tables as plot-ready CSV")
	scale := flag.Float64("scale", experiments.DefaultScale, "dataset scale factor")
	threadsFlag := flag.String("threads", "", "comma-separated thread counts (default 1,16,32,64,128,256)")
	flag.Parse()

	cfg := experiments.Config{Scale: *scale}
	if *threadsFlag != "" {
		for _, f := range strings.Split(*threadsFlag, ",") {
			t, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || t < 1 {
				fmt.Fprintf(os.Stderr, "fimbench: bad thread count %q\n", f)
				os.Exit(2)
			}
			cfg.Threads = append(cfg.Threads, t)
		}
	}

	printTable := func(t *experiments.Table) {
		if *csv {
			fmt.Print(t.CSV())
			return
		}
		fmt.Print(t.Format())
	}
	run := func(id string) bool {
		switch id {
		case "table1":
			fmt.Print(experiments.FormatTableI(experiments.TableI()))
		case "table2+fig5", "apriori-diffset":
			t := experiments.Scalability(core.Apriori, vertical.Diffset, cfg)
			t.ID, t.Title = "table2+fig5", "Running time and speedup for Apriori with Diffset"
			printTable(t)
		case "table3+fig6", "eclat-tidset":
			t := experiments.Scalability(core.Eclat, vertical.Tidset, cfg)
			t.ID, t.Title = "table3+fig6", "Running time and speedup for Eclat with Tidset"
			printTable(t)
		case "table6+fig7", "eclat-bitvector":
			t := experiments.Scalability(core.Eclat, vertical.Bitvector, cfg)
			t.ID, t.Title = "table6+fig7", "Running time and speedup for Eclat with Bitvector"
			printTable(t)
		case "table5+fig8", "eclat-diffset":
			t := experiments.Scalability(core.Eclat, vertical.Diffset, cfg)
			t.ID, t.Title = "table5+fig8", "Running time and speedup for Eclat with Diffset"
			printTable(t)
		case "eclat-hybrid":
			t := experiments.Scalability(core.Eclat, vertical.Hybrid, cfg)
			t.ID, t.Title = "eclat-hybrid", "Eclat with the Hybrid (dEclat switch-over) extension"
			printTable(t)
		case "apriori-flat":
			for _, t := range experiments.AprioriFlat(cfg) {
				printTable(t)
				fmt.Println()
			}
		case "sparse-limit":
			fmt.Print(experiments.FormatSparse(experiments.SparseLimit(cfg)))
		case "schedule-ablation":
			fmt.Print(experiments.FormatSchedule(experiments.ScheduleAblation(cfg)))
		case "chunk-ablation":
			fmt.Print(experiments.FormatChunk(experiments.ChunkAblation(cfg)))
		case "depth-ablation":
			fmt.Print(experiments.FormatDepth(experiments.DepthAblation(cfg)))
		case "baselines":
			fmt.Print(experiments.FormatBaselines(experiments.Baselines(cfg)))
		case "ht-ablation":
			fmt.Print(experiments.FormatHT(experiments.HTAblation(cfg)))
		case "memory-footprint":
			fmt.Print(experiments.FormatFootprint(experiments.MemoryFootprint(cfg)))
		default:
			return false
		}
		return true
	}

	if *exp == "all" {
		for _, id := range []string{
			"table1", "table2+fig5", "apriori-flat", "table3+fig6",
			"table6+fig7", "table5+fig8", "eclat-hybrid", "sparse-limit",
			"schedule-ablation", "chunk-ablation", "depth-ablation", "baselines",
			"ht-ablation", "memory-footprint",
		} {
			run(id)
			fmt.Println()
		}
		return
	}
	if !run(*exp) {
		fmt.Fprintf(os.Stderr, "fimbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
