// Command calibrate sweeps supports and Eclat flattening depths for each
// dense dataset and prints the quantities the experiment design cares
// about: itemset counts, per-generation payload pools by representation,
// and simulated 256-thread speedups. A development aid for fixing the
// experiment operating points.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apriori"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/eclat"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/vertical"
)

// mustMine unwraps a miner's (result, error) pair; calibration runs set
// no budget, so errors are bugs.
func mustMine(res *core.Result, err error) *core.Result {
	if err != nil {
		panic(err)
	}
	return res
}

func main() {
	only := flag.String("only", "", "restrict to one dataset")
	gallop := flag.Bool("gallop", false, "re-time the tidset merge-vs-gallop crossover on this host and exit")
	tiles := flag.Bool("tiles", false, "re-time the tiled layout's sparse/dense crossover and tile-width kernels on this host and exit")
	nodesetSweep := flag.Bool("nodeset", false, "re-time the nodeset-vs-tiled density crossover on this host and exit")
	write := flag.String("write", "", "with -tiles: also write the derived calibration JSON to this path (load via -calibration or FIM_CALIBRATION)")
	flag.Parse()
	if *gallop {
		calibrateGallop()
		return
	}
	if *tiles {
		calibrateTiles(*write)
		return
	}
	if *nodesetSweep {
		if *write != "" {
			fmt.Fprintln(os.Stderr, "calibrate: -write applies to -tiles only; -nodeset prints its recommendation")
			os.Exit(2)
		}
		calibrateNodeset()
		return
	}
	cfg := machine.Blacklight()
	threads := []int{16, 256}
	for _, d := range datasets.Dense() {
		if *only != "" && d.Name != *only {
			continue
		}
		db := d.Build(d.ExperimentScale)
		for _, mult := range []float64{1.25, 1.0, 0.85} {
			sup := d.DefaultSupport * mult
			rec := db.Recode(db.AbsoluteSupport(sup))
			if len(rec.Items) < 3 {
				continue
			}
			// Apriori pools per representation.
			fmt.Printf("%s@%.3f freqItems=%d\n", d.Name, sup, len(rec.Items))
			for _, rep := range []vertical.Kind{vertical.Tidset, vertical.Diffset, vertical.Bitvector} {
				trace := &sched.Record{}
				opt := core.DefaultOptions(rep, 1)
				opt.Record = trace
				res := mustMine(apriori.Mine(rec, rec.MinSup, opt))
				var maxPool int64
				for _, l := range trace.Loops {
					if l.Modelled() {
						maxPool = max(maxPool, l.Model.UniqueParent)
					}
				}
				_, sp := machine.Speedup(trace, threads, cfg)
				fmt.Printf("  apriori/%-10v itemsets=%-7d maxPool=%6.2fMB  speedup16=%6.1f speedup256=%6.1f\n",
					rep, res.Len(), float64(maxPool)/(1<<20), sp[0], sp[1])
			}
			for _, rep := range []vertical.Kind{vertical.Tidset, vertical.Diffset} {
				for _, depth := range []int{3, 4} {
					trace := &sched.Record{}
					opt := core.DefaultOptions(rep, 1)
					opt.Record = trace
					opt.EclatDepth = depth
					mustMine(eclat.Mine(rec, rec.MinSup, opt))
					_, sp := machine.Speedup(trace, threads, cfg)
					fmt.Printf("  eclat/%-7v d=%d speedup16=%6.1f speedup256=%6.1f\n", rep, depth, sp[0], sp[1])
				}
			}
		}
	}
}
