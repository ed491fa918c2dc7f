// Command obsvalidate checks a run's observability artifacts against
// their schemas: a JSON-lines event stream (fimmine -events, or a
// fimserve run's /runs/{id}/events replay), a run report (fimmine
// -report, fim-run-report/v1) and a span timeline (fimmine -trace,
// Chrome trace-event JSON). When both -events and -trace are given, it
// also cross-checks the trace's per-worker chunk-span totals against
// the event stream's phase_end load metrics (within 5%). CI runs it
// over the artifacts of a short instrumented mine and a served smoke
// load.
//
// Every failure names the offending artifact path on stderr; each
// validator class has a distinct exit code so CI logs identify the
// broken layer without parsing messages:
//
//	0  all artifacts valid
//	1  I/O error opening or reading an artifact
//	2  usage error (no artifacts requested)
//	3  event stream invalid
//	4  run report invalid
//	6  trace file invalid
//	7  trace/events busy-time cross-check failed
//
// 5 (bench files), 8 (metrics scrapes) and 9 (incident bundles) are
// retired with the artifacts they checked.
//
// Usage:
//
//	obsvalidate -events run.jsonl -report run.json -trace run.trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/export"
)

// Exit codes, one per validator class. 5 (the bench-file class), 8 (the
// metrics-scrape class) and 9 (the incident-bundle class) are retired,
// so every other code keeps its number.
const (
	exitOK       = 0
	exitIO       = 1
	exitUsage    = 2
	exitEvents   = 3
	exitReport   = 4
	exitTrace    = 6
	exitCrossChk = 7
)

// crossCheckTol matches the acceptance bound: span totals and the
// phase_end busy time (the measured half of each loop's sched.Record
// entry) derive from the same chunk timings, so 5% covers only encoding
// rounding.
const crossCheckTol = 0.05

func main() {
	eventsPath := flag.String("events", "", "JSON-lines event stream to validate")
	reportPath := flag.String("report", "", "fim-run-report/v1 document to validate")
	tracePath := flag.String("trace", "", "Chrome trace-event JSON timeline to validate")
	flag.Parse()

	if *eventsPath == "" && *reportPath == "" && *tracePath == "" {
		fmt.Fprintln(os.Stderr, "obsvalidate: nothing to validate (pass -events, -report and/or -trace)")
		os.Exit(exitUsage)
	}

	checked := 0
	var events []obs.Event
	if *eventsPath != "" {
		f, err := os.Open(*eventsPath)
		if err != nil {
			fail(exitIO, *eventsPath, err)
		}
		events, err = export.DecodeLines(f)
		f.Close()
		if err != nil {
			fail(exitEvents, *eventsPath, err)
		}
		if err := export.ValidateEvents(events); err != nil {
			fail(exitEvents, *eventsPath, err)
		}
		fmt.Printf("%s: %d events, stream valid\n", *eventsPath, len(events))
		checked++
	}
	if *reportPath != "" {
		f, err := os.Open(*reportPath)
		if err != nil {
			fail(exitIO, *reportPath, err)
		}
		rep, err := export.ReadReport(f)
		f.Close()
		if err != nil {
			fail(exitReport, *reportPath, err)
		}
		fmt.Printf("%s: %s %s x%d, %d levels, %d itemsets, report valid\n",
			*reportPath, rep.Schema, rep.Algorithm, rep.Workers, len(rep.Levels), rep.Itemsets)
		checked++
	}
	var trace *export.TraceFile
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fail(exitIO, *tracePath, err)
		}
		trace, err = export.ReadTraceFile(f)
		f.Close()
		if err != nil {
			fail(exitTrace, *tracePath, err)
		}
		fmt.Printf("%s: %d trace events, %d worker row(s), trace valid\n",
			*tracePath, len(trace.TraceEvents), len(trace.WorkerRows()))
		checked++
	}
	if trace != nil && events != nil {
		if err := export.CrossCheckTrace(trace, events, crossCheckTol); err != nil {
			fail(exitCrossChk, *tracePath, err)
		}
		fmt.Printf("%s: busy time agrees with %s phase_end metrics within %.0f%%\n",
			*tracePath, *eventsPath, crossCheckTol*100)
	}
	fmt.Printf("obsvalidate: %d artifact(s) valid\n", checked)
}

// fail reports the offending artifact and exits with the validator
// class's code.
func fail(code int, path string, err error) {
	fmt.Fprintf(os.Stderr, "obsvalidate: %s: %v\n", path, err)
	os.Exit(code)
}
