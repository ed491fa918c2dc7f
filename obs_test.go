package fim

// Acceptance tests for the observability layer: the structured event
// stream emitted through Options.Observer, driven end-to-end through
// MineContext on all three miners, including the terminal events of the
// cancel/budget/degrade/panic paths (extending the PR 1 fault-injection
// suite to assert on the stream).

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/sched"
)

// mineRecorded runs one observed mine and returns the result, the error
// and the recorded stream.
func mineRecorded(t *testing.T, db *DB, opt Options) (*Result, error, []Event) {
	t.Helper()
	rec := &EventRecorder{}
	opt.Observer = rec
	res, err := MineContext(context.Background(), db, 0.5, opt)
	if res == nil {
		t.Fatalf("nil result (err=%v)", err)
	}
	return res, err, rec.Events()
}

// assertStream checks the structural invariants every stream must hold:
// run_start first, run_end last, each exactly once, every level opened
// exactly once before it closes, and every phase_end's per-worker task
// counts summing to the loop's iteration count.
func assertStream(t *testing.T, label string, events []Event) {
	t.Helper()
	if err := export.ValidateEvents(events); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, e := range events {
		if e.Type != EventPhaseEnd || len(e.Load) == 0 {
			continue
		}
		var tasks int64
		for _, w := range e.Load {
			tasks += w.Tasks
		}
		if tasks > int64(e.Candidates) {
			t.Errorf("%s: phase %q worker tasks %d exceed loop n %d",
				label, e.Phase, tasks, e.Candidates)
		}
	}
}

// countType returns how many events of each type the stream holds.
func countType(events []Event, ty EventType) int {
	n := 0
	for _, e := range events {
		if e.Type == ty {
			n++
		}
	}
	return n
}

// TestObserverEventOrder: a complete run on each miner emits run_start,
// ordered level_start/level_end pairs with consistent counts, one
// phase_end per scheduler loop, and a run_end whose totals match the
// Result — with the stream identical in shape under -race at 4 workers.
// Nodeset runs too: its pair-matrix children are charged at their real
// list size, so no level_end may report negative live bytes.
func TestObserverEventOrder(t *testing.T) {
	db := runctlDB(t)
	for _, rep := range []Representation{Diffset, Nodeset} {
		for _, algo := range []Algorithm{Apriori, Eclat, FPGrowth} {
			label := rep.String() + "/" + algo.String()
			res, err, events := mineRecorded(t, db, Options{
				Algorithm: algo, Representation: rep, Workers: 4,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertStream(t, label, events)
			for _, e := range events {
				if e.Type == EventLevelEnd && e.LiveBytes < 0 {
					t.Errorf("%s: level_end %q live_bytes %d < 0", label, e.Phase, e.LiveBytes)
				}
			}

			first, last := events[0], events[len(events)-1]
			if first.Algorithm != algo.String() || first.Workers != 4 || first.Transactions != db.NumTransactions() {
				t.Errorf("%s: run_start = %+v", label, first)
			}
			if first.MinSupport < 1 {
				t.Errorf("%s: run_start min_support = %d", label, first.MinSupport)
			}
			if last.Itemsets != int64(res.Len()) || last.MaxK != res.MaxK {
				t.Errorf("%s: run_end totals (%d, %d) disagree with result (%d, %d)",
					label, last.Itemsets, last.MaxK, res.Len(), res.MaxK)
			}
			if last.Incomplete || last.DegradedRun {
				t.Errorf("%s: complete run marked incomplete/degraded in run_end", label)
			}
			if last.PeakLiveBytes <= 0 {
				t.Errorf("%s: run_end peak_live_bytes = %d", label, last.PeakLiveBytes)
			}

			starts, ends := countType(events, EventLevelStart), countType(events, EventLevelEnd)
			if starts == 0 || starts != ends {
				t.Errorf("%s: %d level_start vs %d level_end", label, starts, ends)
			}
			if countType(events, EventPhaseEnd) == 0 {
				t.Errorf("%s: no phase_end events", label)
			}
			if countType(events, EventStop)+countType(events, EventBudgetWarning)+countType(events, EventDegraded) != 0 {
				t.Errorf("%s: control-plane events on a clean run", label)
			}

			// Levels arrive in search order: Apriori generations strictly
			// ascending, Eclat's flattened stages non-descending.
			lastLevel := 0
			for _, e := range events {
				if e.Type != EventLevelEnd || e.Level == 0 {
					continue
				}
				if algo == Apriori && e.Level != lastLevel+1 {
					t.Errorf("%s: level %d after %d", label, e.Level, lastLevel)
				}
				if e.Level < lastLevel {
					t.Errorf("%s: level %d after %d", label, e.Level, lastLevel)
				}
				lastLevel = e.Level
			}

			// Frequent counts per level sum to the result (Eclat's stream
			// omits the size-1 roots, which the recode pass already counted).
			sum := 0
			for _, e := range events {
				if e.Type == EventLevelEnd {
					sum += e.Frequent
				}
			}
			want := res.Len()
			if algo == Eclat {
				want -= len(res.Rec.Items)
			}
			if sum != want {
				t.Errorf("%s: level frequent counts sum to %d, result has %d", label, sum, want)
			}
		}
	}
}

// TestObserverAprioriCandidates: Apriori's level events carry the
// generated/pruned candidate split, and pruning shows up in the stream.
func TestObserverAprioriCandidates(t *testing.T) {
	db := runctlDB(t)
	_, err, events := mineRecorded(t, db, Options{
		Algorithm: Apriori, Representation: Diffset, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawCandidates := false
	for _, e := range events {
		if e.Type == EventLevelStart && e.Level >= 2 {
			if e.Candidates <= 0 {
				t.Errorf("level %d start without candidate count", e.Level)
			}
			sawCandidates = true
		}
	}
	if !sawCandidates {
		t.Error("no level_start with candidates past level 1")
	}
}

// TestObserverCancelEmitsStop: a cancelled run's stream still closes
// properly — a stop event with reason "canceled" and a final run_end
// marked incomplete.
func TestObserverCancelEmitsStop(t *testing.T) {
	defer sched.SetFaultHook(nil)
	db := runctlDB(t)
	for _, algo := range []Algorithm{Apriori, Eclat, FPGrowth} {
		ctx, cancel := context.WithCancel(context.Background())
		rec := &EventRecorder{}
		gate := armMiningFault(rec, func(fc sched.FaultContext) {
			if fc.Seq == cancelSeq {
				cancel()
				for !fc.Control.Stopped() {
					time.Sleep(10 * time.Microsecond)
				}
			}
		})
		res, _ := MineContext(ctx, db, 0.5, Options{
			Algorithm: algo, Representation: Tidset, Workers: 2, Observer: gate,
		})
		cancel()
		sched.SetFaultHook(nil)

		events := rec.Events()
		assertStream(t, algo.String(), events)
		stops := rec.ByType(EventStop)
		if len(stops) != 1 || stops[0].Reason != "canceled" {
			t.Fatalf("%v: stop events = %+v, want one with reason canceled", algo, stops)
		}
		last := events[len(events)-1]
		if !last.Incomplete {
			t.Errorf("%v: run_end not marked incomplete", algo)
		}
		if res == nil || !res.Incomplete {
			t.Errorf("%v: result not marked incomplete", algo)
		}
		if countType(events, EventLevelStart) == 0 || res.Len() == 0 {
			t.Errorf("%v: the cancel did not land in the miner (no level, %d itemsets)", algo, res.Len())
		}
	}
}

// TestObserverBudgetWarningsAndStop: an itemsets budget emits ascending
// threshold warnings before the terminal budget stop.
func TestObserverBudgetWarningsAndStop(t *testing.T) {
	db := runctlDB(t)
	_, err, events := mineRecorded(t, db, Options{
		Algorithm: Apriori, Representation: Diffset, Workers: 2,
		MaxItemsets: 200,
	})
	if err == nil {
		t.Fatal("itemsets budget did not bind")
	}
	assertStream(t, "itemsets-budget", events)
	var warns []Event
	for _, e := range events {
		if e.Type == EventBudgetWarning {
			warns = append(warns, e)
		}
	}
	if len(warns) == 0 {
		t.Fatal("no budget_warning before the stop")
	}
	lastFrac := 0.0
	for _, w := range warns {
		if w.Resource != "itemsets" {
			t.Errorf("warning resource = %q", w.Resource)
		}
		if w.Fraction <= lastFrac {
			t.Errorf("warning fractions not ascending: %v after %v", w.Fraction, lastFrac)
		}
		if w.Limit != 200 || w.Used <= 0 {
			t.Errorf("warning used/limit = %d/%d", w.Used, w.Limit)
		}
		lastFrac = w.Fraction
	}
	stops := 0
	for _, e := range events {
		if e.Type == EventStop {
			stops++
			if e.Reason != "budget:itemsets" {
				t.Errorf("stop reason = %q, want budget:itemsets", e.Reason)
			}
		}
	}
	if stops != 1 {
		t.Errorf("stop events = %d, want 1", stops)
	}
}

// TestObserverMemoryBudgetStop: a memory breach without degradation
// warns on the memory resource and stops with budget:memory.
func TestObserverMemoryBudgetStop(t *testing.T) {
	db := runctlDB(t)
	_, err, events := mineRecorded(t, db, Options{
		Algorithm: Apriori, Representation: Tidset, Workers: 2,
		MaxMemoryBytes: 100 << 10,
	})
	if err == nil {
		t.Fatal("memory budget did not bind")
	}
	assertStream(t, "memory-budget", events)
	sawMemWarn := false
	for _, e := range events {
		if e.Type == EventBudgetWarning && e.Resource == "memory" {
			sawMemWarn = true
		}
	}
	if !sawMemWarn {
		t.Error("no memory budget_warning")
	}
	stops := 0
	for _, e := range events {
		if e.Type == EventStop {
			stops++
			if e.Reason != "budget:memory" {
				t.Errorf("stop reason = %q, want budget:memory", e.Reason)
			}
		}
	}
	if stops != 1 {
		t.Errorf("stop events = %d, want 1", stops)
	}
}

// TestObserverDegradeEmitsEvent: the mid-run diffset switch appears as
// exactly one degraded event, the run completes with no stop event, and
// run_end carries the degraded flag.
func TestObserverDegradeEmitsEvent(t *testing.T) {
	db := runctlDB(t)
	for _, algo := range []Algorithm{Apriori, Eclat} {
		res, err, events := mineRecorded(t, db, Options{
			Algorithm: algo, Representation: Tidset, Workers: 2,
			MaxMemoryBytes: 100 << 10, DegradeToDiffset: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !res.Degraded {
			t.Fatalf("%v: budget no longer binds", algo)
		}
		assertStream(t, algo.String(), events)
		degs := 0
		for _, e := range events {
			if e.Type == EventDegraded {
				degs++
				if e.Representation != "diffset" {
					t.Errorf("%v: degraded to %q", algo, e.Representation)
				}
			}
		}
		if degs != 1 {
			t.Errorf("%v: degraded events = %d, want 1", algo, degs)
		}
		if countType(events, EventStop) != 0 {
			t.Errorf("%v: stop event on a completed degraded run", algo)
		}
		if !events[len(events)-1].DegradedRun {
			t.Errorf("%v: run_end missing degraded flag", algo)
		}
	}
}

// TestObserverPanicEmitsStop: a contained worker panic surfaces in the
// stream as a worker-panic stop, and the stream still ends in run_end.
func TestObserverPanicEmitsStop(t *testing.T) {
	defer sched.SetFaultHook(nil)
	db := runctlDB(t)
	for _, algo := range []Algorithm{Apriori, Eclat, FPGrowth} {
		rec := &EventRecorder{}
		gate := armMiningFault(rec, func(fc sched.FaultContext) {
			if fc.Seq == panicSeq {
				panic("injected worker fault")
			}
		})
		res, err := MineContext(context.Background(), db, 0.5, Options{
			Algorithm: algo, Representation: Tidset, Workers: 4, Observer: gate,
		})
		sched.SetFaultHook(nil)
		if err == nil {
			t.Fatalf("%v: injected panic did not surface", algo)
		}
		events := rec.Events()
		assertStream(t, algo.String(), events)
		stops := rec.ByType(EventStop)
		if len(stops) != 1 || stops[0].Reason != "worker-panic" {
			t.Fatalf("%v: stop events = %+v, want one worker-panic", algo, stops)
		}
		if countType(events, EventLevelStart) == 0 || res == nil || res.Len() == 0 {
			t.Errorf("%v: the panic did not land in the miner", algo)
		}
	}
}

// TestObserverDeadlineReason: a context deadline classifies as
// "deadline", distinct from explicit cancellation.
func TestObserverDeadlineReason(t *testing.T) {
	defer sched.SetFaultHook(nil)
	sched.SetFaultHook(func(sched.FaultContext) { time.Sleep(5 * time.Millisecond) })
	db := runctlDB(t)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	rec := &EventRecorder{}
	_, err := MineContext(ctx, db, 0.5, Options{
		Algorithm: Eclat, Representation: Tidset, Workers: 2, Observer: rec,
	})
	sched.SetFaultHook(nil)
	if err == nil {
		t.Fatal("deadline did not bind")
	}
	stops := rec.ByType(EventStop)
	if len(stops) != 1 || stops[0].Reason != "deadline" {
		t.Fatalf("stop events = %+v, want one with reason deadline", stops)
	}
}

// TestObserverResultUnchanged: observing a run must not change its
// answer.
func TestObserverResultUnchanged(t *testing.T) {
	db := runctlDB(t)
	for _, algo := range []Algorithm{Apriori, Eclat, FPGrowth} {
		ref, err := Mine(db, 0.5, Options{Algorithm: algo, Representation: Diffset, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err, _ := mineRecorded(t, db, Options{Algorithm: algo, Representation: Diffset, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(ref) {
			t.Errorf("%v: observed run disagrees with unobserved reference", algo)
		}
	}
}

// TestMultiObserver: fan-out delivers every event to every sink, and
// the nil/single fast paths collapse correctly.
func TestMultiObserver(t *testing.T) {
	if MultiObserver() != nil || MultiObserver(nil, nil) != nil {
		t.Error("MultiObserver of no live sinks != nil")
	}
	r := &EventRecorder{}
	if MultiObserver(nil, r) != Observer(r) {
		t.Error("single live sink not unwrapped")
	}
	r2 := &EventRecorder{}
	m := MultiObserver(r, r2)
	m.Event(obs.Event{Type: EventRunStart})
	if len(r.Events()) != 1 || len(r2.Events()) != 1 {
		t.Error("fan-out missed a sink")
	}
}

// TestStopReason covers the classifier's stable strings.
func TestStopReason(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{context.Canceled, "canceled"},
		{context.DeadlineExceeded, "deadline"},
		{&BudgetError{Resource: "memory"}, "budget:memory"},
		{&BudgetError{Resource: "duration"}, "budget:duration"},
		{&WorkerPanicError{Value: "x"}, "worker-panic"},
		{context.Background().Err(), ""},
	}
	for _, c := range cases {
		if got := StopReason(c.err); got != c.want {
			t.Errorf("StopReason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestStopReasonGoldenList freezes the complete reason vocabulary.
// Report and event consumers switch on these strings (stop events,
// fim-run-report/v1 stop_reason), so adding a reason is fine but
// renaming one is a breaking schema change — update consumers and this
// list together.
func TestStopReasonGoldenList(t *testing.T) {
	golden := map[string]bool{
		"":                     true,
		"worker-panic":         true,
		"budget:memory":        true,
		"budget:itemsets":      true,
		"budget:duration":      true,
		"budget:shared-memory": true,
		"canceled":             true,
		"deadline":             true,
		"error":                true,
	}
	produced := []string{
		StopReason(nil),
		StopReason(&WorkerPanicError{Value: "x"}),
		StopReason(&BudgetError{Resource: "memory"}),
		StopReason(&BudgetError{Resource: "itemsets"}),
		StopReason(&BudgetError{Resource: "duration"}),
		StopReason(&BudgetError{Resource: "shared-memory"}),
		StopReason(context.Canceled),
		StopReason(context.DeadlineExceeded),
		StopReason(errors.New("disk on fire")),
	}
	seen := map[string]bool{}
	for _, r := range produced {
		if !golden[r] {
			t.Errorf("StopReason produced %q, not in the golden list", r)
		}
		seen[r] = true
	}
	for r := range golden {
		if !seen[r] {
			t.Errorf("golden reason %q no longer produced", r)
		}
	}
}
