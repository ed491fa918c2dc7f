package fim

// End-to-end tests for the span timeline and kernel counters: a real
// mine on chess with Options.SpanTrace exports valid Chrome trace-event
// JSON (one row per worker), whose busy totals cross-check against the
// event stream's phase_end load metrics, and the kernel_counters event
// reports nonzero work for the representation that ran.

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs/export"
	"repro/internal/sched"
	"repro/internal/vertical"
)

// mineTraced runs one mine with a span recorder attached alongside an
// event recorder.
func mineTraced(t *testing.T, db *DB, opt Options) (*SpanRecorder, []Event) {
	t.Helper()
	rec := &EventRecorder{}
	tr := NewSpanRecorder()
	opt.Observer = rec
	opt.SpanTrace = tr
	res, err := MineContext(context.Background(), db, 0.5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Len() == 0 {
		t.Fatal("traced mine returned no itemsets")
	}
	return tr, rec.Events()
}

// TestTraceExportChess: the acceptance path — mine chess, build the
// trace, schema-check it, count worker rows, and round-trip it through
// the JSON writer/reader.
func TestTraceExportChess(t *testing.T) {
	db, err := Dataset("chess", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	tr, events := mineTraced(t, db, Options{
		Algorithm: Eclat, Representation: Tidset, Workers: workers,
	})
	tf := export.BuildTrace(tr)
	if err := export.ValidateTrace(tf); err != nil {
		t.Fatalf("trace schema: %v", err)
	}
	rows := tf.WorkerRows()
	if len(rows) == 0 || len(rows) > workers {
		t.Fatalf("worker rows %v for a %d-worker run", rows, workers)
	}
	// Every worker that reported busy time in the event stream has its
	// own timeline row.
	busy := map[int]bool{}
	for _, e := range events {
		if e.Type == EventPhaseEnd {
			for _, l := range e.Load {
				if l.BusyNS > 0 {
					busy[l.Worker] = true
				}
			}
		}
	}
	rowSet := map[int]bool{}
	for _, tid := range rows {
		rowSet[tid-1] = true
	}
	for w := range busy {
		if !rowSet[w] {
			t.Errorf("worker %d has busy time but no timeline row (rows %v)", w, rows)
		}
	}

	var buf bytes.Buffer
	if err := export.WriteTrace(&buf, tf); err != nil {
		t.Fatal(err)
	}
	back, err := export.ReadTraceFile(&buf)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.TraceEvents) != len(tf.TraceEvents) {
		t.Errorf("round trip kept %d of %d trace events", len(back.TraceEvents), len(tf.TraceEvents))
	}
}

// TestTraceCrossCheck: the trace's per-worker chunk totals agree with
// the phase_end load metrics within the validator's 5% bound — both
// sinks are fed the same measured durations.
func TestTraceCrossCheck(t *testing.T) {
	db, err := Dataset("chess", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{Apriori, Eclat} {
		tr, events := mineTraced(t, db, Options{
			Algorithm: algo, Representation: Diffset, Workers: 4,
		})
		tf := export.BuildTrace(tr)
		if err := export.CrossCheckTrace(tf, events, 0.05); err != nil {
			t.Errorf("%v: %v", algo, err)
		}
	}
}

// TestLoopRecordMatchesPhaseEnd: a run that is both observed and traced
// keeps one record per loop, and the phase_end stream is that record's
// measured halves — one event per measured loop, in order, under the
// name its miner opened it with (no anonymous loop<k>), with the same
// schedule and iteration count and per-worker tasks summing to it, each
// emitted before its stage's level_end. The first pass's loops come
// first, each with both halves, and reach phase_end before any level
// opens. Apriori's subset-prune loops carry their generation in their
// name and only a measured half.
func TestLoopRecordMatchesPhaseEnd(t *testing.T) {
	db := runctlDB(t)
	anonymous := regexp.MustCompile(`^loop[0-9]+$`)
	for _, algo := range []Algorithm{Apriori, Eclat, FPGrowth} {
		for _, rep := range []Representation{Diffset, Bitvector} {
			label := fmt.Sprintf("%v/%v", algo, rep)
			events := &EventRecorder{}
			trace := &Trace{}
			if _, err := Mine(db, 0.5, Options{Algorithm: algo, Representation: rep,
				Workers: 2, Observer: events, Trace: trace}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var measured []*sched.Loop
			for _, l := range trace.Loops {
				if l.Load != nil {
					measured = append(measured, l)
				}
			}
			stream := events.Events()
			var phases []Event
			levelEnd := map[string]int{}
			for i, e := range stream {
				switch e.Type {
				case EventPhaseEnd:
					phases = append(phases, e)
					if _, ok := levelEnd[e.Phase]; ok {
						t.Errorf("%s: phase_end %q after its level_end", label, e.Phase)
					}
				case EventLevelEnd:
					levelEnd[e.Phase] = i
				}
			}
			if len(measured) == 0 || len(phases) != len(measured) {
				t.Fatalf("%s: %d phase_end events, %d measured loops", label, len(phases), len(measured))
			}
			for i, e := range phases {
				l := measured[i]
				if anonymous.MatchString(e.Phase) {
					t.Errorf("%s: anonymous phase_end %q", label, e.Phase)
				}
				if e.Phase != l.Name || e.Schedule != l.Schedule.String() || e.Candidates != l.Load.N {
					t.Errorf("%s: phase_end %d = %q %s n=%d, loop = %q %s n=%d", label, i,
						e.Phase, e.Schedule, e.Candidates, l.Name, l.Schedule, l.Load.N)
				}
				var tasks int64
				for w, ld := range e.Load {
					if ld.Tasks != l.Load.Workers[w].Tasks {
						t.Errorf("%s: %q worker %d tasks %d, loop %d", label, e.Phase, w, ld.Tasks, l.Load.Workers[w].Tasks)
					}
					tasks += ld.Tasks
				}
				if tasks != int64(e.Candidates) {
					t.Errorf("%s: %q worker tasks sum %d != n %d", label, e.Phase, tasks, e.Candidates)
				}
			}
			// Every miner's record opens with the first pass, each loop with
			// both halves and its phase_end before any level_start; FP-growth
			// builds its chunk trees where the vertical miners build roots.
			first := []string{"dataset/count", "dataset/recode", "vertical/roots"}
			if algo == FPGrowth {
				first[2] = "fpgrowth/tree"
			}
			for i, name := range first {
				l := trace.Loops[i]
				if l.Name != name || l.Load == nil || l.Model == nil {
					t.Errorf("%s: loop %d = %q load %v model %v, want %q with both halves", label, i, l.Name, l.Load, l.Model, name)
				}
				at := slices.IndexFunc(stream, func(e Event) bool { return e.Type == EventPhaseEnd && e.Phase == name })
				if start := slices.IndexFunc(stream, func(e Event) bool { return e.Type == EventLevelStart }); at < 0 || at > start {
					t.Errorf("%s: phase_end %q at %d, first level_start at %d", label, name, at, start)
				}
			}
			if algo != Apriori {
				continue
			}
			prunes := 0
			for i, l := range trace.Loops {
				name, ok := strings.CutPrefix(l.Name, "apriori/prune")
				if !ok {
					continue
				}
				prunes++
				gen, err := strconv.Atoi(name)
				if err != nil || gen < 3 || l.Model != nil {
					t.Errorf("%s: prune loop %q (model %v)", label, l.Name, l.Model)
				}
				// The generation's counting loop, when any candidate
				// survived, follows its prune loop.
				if i+1 < len(trace.Loops) && strings.HasPrefix(trace.Loops[i+1].Name, "apriori/gen") &&
					trace.Loops[i+1].Name != fmt.Sprintf("apriori/gen%d", gen) {
					t.Errorf("%s: %q followed by %q", label, l.Name, trace.Loops[i+1].Name)
				}
			}
			if prunes == 0 {
				t.Errorf("%s: no prune loop recorded", label)
			}
		}
	}
}

// TestKernelCountersEmitted: every observed run emits exactly one
// kernel_counters event with nonzero work for the representation that
// ran, for both vertical miners over every kind — and the counts are
// exact per run, so four identical runs overlapping each other each
// report the solo run's map. Which worker served which arena request
// varies between runs, so arena_hits and arena_misses compare as one
// sum.
func TestKernelCountersEmitted(t *testing.T) {
	db := runctlDB(t)
	want := map[Representation][]string{
		Tidset:    {"tids_compared"},
		Bitvector: {"words_anded", "words_popcounted"},
		Diffset:   {"tids_compared"},
		Hybrid:    {"tids_compared"},
		Tiled:     {"summary_words_anded"},
		Nodeset:   {"nlist_nodes_merged", "ppc_nodes_built"},
	}
	// counters mines once and returns the run's one counter map, with
	// the arena split folded into its sum.
	counters := func(algo Algorithm, rep Representation) (map[string]int64, error) {
		rec := &EventRecorder{}
		if _, err := MineContext(context.Background(), db, 0.5, Options{
			Algorithm: algo, Representation: rep, Workers: 2, Observer: rec,
		}); err != nil {
			return nil, err
		}
		var m map[string]int64
		n := 0
		for _, e := range rec.Events() {
			if e.Type == EventKernelCounters {
				m = maps.Clone(e.Counters)
				n++
			}
		}
		if n != 1 {
			return nil, fmt.Errorf("%d kernel_counters events, want 1", n)
		}
		m["arena_hits+misses"] = m["arena_hits"] + m["arena_misses"]
		delete(m, "arena_hits")
		delete(m, "arena_misses")
		return m, nil
	}
	for _, algo := range []Algorithm{Apriori, Eclat} {
		for _, rep := range vertical.AllKinds() {
			label := algo.String() + "/" + rep.String()
			solo, err := counters(algo, rep)
			if err != nil {
				t.Fatalf("%s solo: %v", label, err)
			}
			for _, k := range append(want[rep], "nodes_built_"+rep.String()) {
				if solo[k] <= 0 {
					t.Errorf("%s: counter %q = %d, want > 0 (counters: %v)", label, k, solo[k], solo)
				}
			}

			const overlap = 4
			got := make([]map[string]int64, overlap)
			errs := make([]error, overlap)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = counters(algo, rep)
				}()
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatalf("%s overlapped run %d: %v", label, i, errs[i])
				}
				if !maps.Equal(got[i], solo) {
					t.Errorf("%s overlapped run %d: counters %v, want the solo run's %v", label, i, got[i], solo)
				}
			}
		}
	}
}

// TestSpanTraceResultUnchanged: attaching the span recorder does not
// change the mining answer.
func TestSpanTraceResultUnchanged(t *testing.T) {
	db := runctlDB(t)
	ref, err := Mine(db, 0.5, Options{Algorithm: Eclat, Representation: Tidset, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewSpanRecorder()
	res, err := Mine(db, 0.5, Options{Algorithm: Eclat, Representation: Tidset, Workers: 4, SpanTrace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(ref) {
		t.Error("traced run disagrees with untraced reference")
	}
	if len(tr.Spans()) == 0 {
		t.Error("span recorder saw no spans")
	}
}
