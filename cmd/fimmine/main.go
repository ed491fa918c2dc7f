// Command fimmine mines frequent itemsets from a FIMI-format file or one
// of the built-in synthetic datasets.
//
// Usage:
//
//	fimmine -dataset chess -support 0.5
//	fimmine -file retail.dat -support 0.01 -algo apriori -rep tidset -workers 8
//	fimmine -dataset mushroom -support 0.4 -rules 0.8
//	fimmine -dataset chess -support 0.5 -closed
//	fimmine -dataset pumsb -support 0.8 -timeout 10s -max-memory-mb 256 -degrade
//
// The run is cancellable: SIGINT/SIGTERM (or an expired -timeout, or a
// breached -max-memory-mb/-max-itemsets budget) stops mining at the next
// chunk boundary and the command prints whatever complete levels were
// mined, a summary marked INCOMPLETE, and the stop reason, exiting 1.
//
// Observability: -progress prints live level-by-level progress,
// -events writes the structured JSON-lines event stream, -report writes
// the final fim-run-report/v1 JSON document, -trace writes the span
// timeline as Chrome trace-event JSON (load in ui.perfetto.dev: one row
// per worker, one bar per scheduler chunk). Itemsets and rules are the
// only stdout output; every diagnostic (summary, progress, stop reason)
// goes to stderr, so piped stdout stays clean.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs/export"
)

func main() {
	file := flag.String("file", "", "FIMI-format input file")
	dsName := flag.String("dataset", "", "built-in synthetic dataset (chess, mushroom, pumsb, pumsb_star, T40I10D100K, accidents)")
	scale := flag.Float64("scale", 1, "synthetic dataset scale factor")
	support := flag.Float64("support", 0.5, "relative minimum support (0..1]")
	algoName := flag.String("algo", "eclat", "algorithm: apriori, eclat, fpgrowth")
	repName := flag.String("rep", "diffset", "representation: tidset, bitvector, diffset, hybrid, tiled, nodeset")
	workers := flag.Int("workers", 1, "parallel workers")
	depth := flag.Int("depth", 0, "Eclat flattening depth (0 = default)")
	schedName := flag.String("sched", "", "override the loop schedule: static, dynamic, guided (default: the algorithm's choice)")
	schedChunk := flag.Int("sched-chunk", 0, "chunk size for -sched (0 = the policy's default)")
	rules := flag.Float64("rules", 0, "also emit association rules at this confidence (0 = off)")
	closedOnly := flag.Bool("closed", false, "print only closed itemsets")
	maximalOnly := flag.Bool("maximal", false, "print only maximal itemsets")
	quiet := flag.Bool("quiet", false, "print summary only, not the itemsets")
	maxMemMB := flag.Float64("max-memory-mb", 0, "stop (or degrade) when mining payloads exceed this many MB (0 = unlimited)")
	maxItemsets := flag.Int64("max-itemsets", 0, "stop after emitting this many itemsets (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "stop after this long (0 = unlimited)")
	degrade := flag.Bool("degrade", false, "on memory-budget breach, switch an Apriori/Eclat run over tidset, bitvector, tiled or nodeset to diffsets instead of stopping, if the diffsets would be smaller")
	progress := flag.Bool("progress", false, "print live level-by-level progress to stderr")
	eventsPath := flag.String("events", "", "write the run's JSON-lines event stream to this file")
	reportPath := flag.String("report", "", "write the machine-readable run report (fim-run-report/v1) to this file")
	tracePath := flag.String("trace", "", "write the run's span timeline as Chrome trace-event JSON to this file (open in ui.perfetto.dev)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
	flag.Parse()

	db, err := loadDB(*file, *dsName, *scale)
	if err != nil {
		fatal(err)
	}

	var opt fim.Options
	if opt.Algorithm, err = fim.ParseAlgorithm(*algoName); err != nil {
		fatal(err)
	}
	if opt.Representation, err = fim.ParseRepresentation(*repName); err != nil {
		fatal(err)
	}
	opt.Workers = *workers
	opt.EclatDepth = *depth
	if *schedName != "" {
		policy, err := fim.ParseSchedulePolicy(*schedName)
		if err != nil {
			fatal(err)
		}
		opt.Schedule = &fim.Schedule{Policy: policy, Chunk: *schedChunk}
	} else if *schedChunk != 0 {
		fatal(errors.New("-sched-chunk needs -sched"))
	}
	opt.MaxMemoryBytes = int64(*maxMemMB * (1 << 20))
	opt.MaxItemsets = *maxItemsets
	opt.MaxDuration = *timeout
	opt.DegradeToDiffset = *degrade
	// When profiling, label the run's samples (fim_algo, fim_rep,
	// fim_phase) so `go tool pprof -tagfocus` can slice by phase.
	opt.ProfileLabels = *cpuProfile != ""

	// Observer sinks: progress printer (stderr), JSON-lines event file,
	// and a report builder feeding -report.
	var sinks []fim.Observer
	if *progress {
		sinks = append(sinks, export.NewProgress(os.Stderr))
	}
	var events *export.JSONLines
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		events = export.NewJSONLines(f)
		sinks = append(sinks, events)
	}
	var builder *export.ReportBuilder
	if *reportPath != "" {
		builder = export.NewReportBuilder()
		sinks = append(sinks, builder)
	}
	opt.Observer = fim.MultiObserver(sinks...)
	var tracer *fim.SpanRecorder
	if *tracePath != "" {
		tracer = fim.NewSpanRecorder()
		opt.SpanTrace = tracer
	}

	// SIGINT/SIGTERM cancel the mining context; the miners drain at the
	// next chunk boundary and return the partial result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Profiles bracket only the mining call, so dataset synthesis and
	// output formatting stay out of the picture.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	start := time.Now()
	res, err := fim.MineContext(ctx, db, *support, opt)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		if perr := writeMemProfile(*memProfile); perr != nil {
			fatal(perr)
		}
	}
	if res == nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	counts := res.Decoded()
	switch {
	case *closedOnly:
		counts = decodeAll(res, fim.ClosedItemsets(res))
	case *maximalOnly:
		counts = decodeAll(res, fim.MaximalItemsets(res))
	}
	if !*quiet {
		// Itemsets stream buffered to stdout; diagnostics stay on stderr.
		out := bufio.NewWriter(os.Stdout)
		for _, c := range counts {
			fmt.Fprintf(out, "%v #%d\n", c.Items, c.Support)
		}
		if err := out.Flush(); err != nil {
			fatal(err)
		}
	}
	status := ""
	if res.Incomplete {
		status = " INCOMPLETE"
	}
	if res.Degraded {
		status += " degraded-to-diffset"
	}
	fmt.Fprintf(os.Stderr, "%s: %d transactions, support %.3g -> %d itemsets (maxK=%d) in %v [%v/%v x%d]%s\n",
		db.Name, db.NumTransactions(), *support, len(counts), res.MaxK, elapsed,
		opt.Algorithm, opt.Representation, opt.Workers, status)
	if res.Incomplete {
		fmt.Fprintf(os.Stderr, "fimmine: stopped early: %v; the %d itemsets above are complete levels with exact supports\n",
			res.StopCause, len(counts))
	}

	if *rules > 0 {
		for _, r := range fim.Rules(res, *rules) {
			fmt.Println(fim.DecodeRule(res, r))
		}
	}
	if events != nil && events.Err() != nil {
		fmt.Fprintf(os.Stderr, "fimmine: writing -events file: %v\n", events.Err())
	}
	if *reportPath != "" {
		if err := writeReportFile(*reportPath, builder); err != nil {
			fatal(err)
		}
	}
	if *tracePath != "" {
		if err := writeTraceFile(*tracePath, tracer); err != nil {
			fatal(err)
		}
		if n := tracer.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "fimmine: trace span cap hit, %d spans dropped\n", n)
		}
	}
	if res.Incomplete {
		os.Exit(1)
	}
}

// writeMemProfile records the post-run allocation profile (allocs,
// which includes live heap plus everything freed — the combine arena's
// figure of merit) at path.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the live portion is accurate
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraceFile renders the recorded span timeline as Chrome
// trace-event JSON at path.
func writeTraceFile(path string, tr *fim.SpanRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export.WriteTrace(f, export.BuildTrace(tr)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReportFile finalizes the builder's report and writes it to path.
func writeReportFile(path string, b *export.ReportBuilder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export.WriteReport(f, b.Report()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadDB(file, dsName string, scale float64) (*fim.DB, error) {
	switch {
	case file != "" && dsName != "":
		return nil, fmt.Errorf("fimmine: -file and -dataset are mutually exclusive")
	case file != "":
		return fim.ReadFIMIFile(file)
	case dsName != "":
		return fim.Dataset(dsName, scale)
	}
	return nil, fmt.Errorf("fimmine: one of -file or -dataset is required")
}

func decodeAll(res *fim.Result, cs []fim.ItemsetCount) []fim.ItemsetCount {
	out := make([]fim.ItemsetCount, len(cs))
	for i, c := range cs {
		out[i] = fim.ItemsetCount{Items: res.Rec.Decode(c.Items), Support: c.Support}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
