package fim

// Acceptance tests for the run-control layer: cooperative cancellation,
// resource budgets with degradation, and panic containment, driven
// end-to-end through MineContext on all three miners.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// runctlDB builds the dense chess workload the run-control tests share:
// big enough for several Apriori generations and many scheduler chunks,
// small enough to mine in milliseconds.
func runctlDB(t *testing.T) *DB {
	t.Helper()
	db, err := Dataset("chess", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// miningGate arms a fault hook for the mining loops only. The first
// pass (count, recode, roots) is shared by every miner and runs before
// the first level_start, so the gate opens at that event and renumbers
// the chunks from there: a hook matching Seq k faults in the k-th chunk
// of the miner itself, the level-2 pair count's chunks included. Pass
// the gate as the run's Observer; events are forwarded to next, which
// may be nil.
type miningGate struct {
	open atomic.Bool
	seq  atomic.Int64
	next Observer
}

func (g *miningGate) Event(e Event) {
	if e.Type == EventLevelStart {
		g.open.Store(true)
	}
	if g.next != nil {
		g.next.Event(e)
	}
}

// The gate's chunk numbers the fault tests arm. Mined at 0.5 on
// Tidset, runctlDB's Apriori and Eclat runs count their pairs in one
// chunk per worker before they combine any, so these land past the
// count, in a combine loop (FP-growth has no count and lands in its
// item loop):
const (
	// cancelSeq, on two workers: past the count's two chunks, the first
	// chunk of Apriori's generation-3 pruning and the third of Eclat's
	// pair stage.
	cancelSeq = 5
	// panicSeq, on four workers: past the count's four chunks, the
	// second chunk of Apriori's generation 2 and of Eclat's pair stage.
	panicSeq = 6
)

// armMiningFault installs hook behind a new gate and returns the gate.
func armMiningFault(next Observer, hook func(sched.FaultContext)) *miningGate {
	g := &miningGate{next: next}
	sched.SetFaultHook(func(fc sched.FaultContext) {
		if !g.open.Load() {
			return
		}
		fc.Seq = g.seq.Add(1)
		hook(fc)
	})
	return g
}

// assertExactSupports recounts every reported itemset against the raw
// database: a stopped or degraded run may be missing itemsets, but
// everything it does report must carry its true support.
func assertExactSupports(t *testing.T, db *DB, res *Result) {
	t.Helper()
	counts := res.Decoded()
	if len(counts) > 300 {
		counts = counts[:300] // recounting is quadratic; a sample suffices
	}
	for _, c := range counts {
		got := 0
		for _, tr := range db.Transactions {
			if c.Items.IsSubsetOf(tr) {
				got++
			}
		}
		if got != c.Support {
			t.Fatalf("itemset %v: reported support %d, true support %d", c.Items, c.Support, got)
		}
	}
}

// TestMineContextCancelPromptly cancels the context at scheduler chunk
// cancelSeq of each miner (past the shared first pass) and asserts the run unwinds within the workers'
// in-flight chunks, returning context.Canceled and a well-formed partial
// Result.
func TestMineContextCancelPromptly(t *testing.T) {
	defer sched.SetFaultHook(nil)
	db := runctlDB(t)
	for _, algo := range []Algorithm{Apriori, Eclat, FPGrowth} {
		ctx, cancel := context.WithCancel(context.Background())
		var after atomic.Int64
		gate := armMiningFault(nil, func(fc sched.FaultContext) {
			if fc.Control.Stopped() {
				after.Add(1)
				return
			}
			if fc.Seq == cancelSeq {
				cancel()
				// The context watcher raises the stop flag from its own
				// goroutine; wait for it so the count below is exact.
				for !fc.Control.Stopped() {
					time.Sleep(10 * time.Microsecond)
				}
			}
		})

		opt := Options{Algorithm: algo, Representation: Tidset, Workers: 2, Observer: gate}
		res, err := MineContext(ctx, db, 0.5, opt)
		cancel()
		sched.SetFaultHook(nil)

		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", algo, err)
		}
		if res == nil {
			t.Fatalf("%v: nil partial result", algo)
		}
		if !res.Incomplete {
			t.Errorf("%v: Incomplete not set on cancelled run", algo)
		}
		if !errors.Is(res.StopCause, context.Canceled) {
			t.Errorf("%v: StopCause = %v", algo, res.StopCause)
		}
		// "Promptly": once the stop flag is up, each worker may already
		// have one chunk in flight, but no more than that.
		if a := after.Load(); a > int64(opt.Workers) {
			t.Errorf("%v: %d chunks started after cancellation", algo, a)
		}
		if res.Len() == 0 {
			t.Errorf("%v: empty partial result; the cancel did not land in the miner", algo)
		}
		assertExactSupports(t, db, res)
	}
}

// TestFirstPassStopsOnCancel: a run whose context is cancelled before
// it starts stops at the first chunk boundary of the first pass, for
// every miner: an empty Incomplete result carrying the cause, a
// canceled stop event, and no level opened.
func TestFirstPassStopsOnCancel(t *testing.T) {
	db := runctlDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algorithm{Apriori, Eclat, FPGrowth} {
		rec := &EventRecorder{}
		trace := &Trace{}
		res, err := MineContext(ctx, db, 0.5, Options{
			Algorithm: algo, Representation: Bitvector, Workers: 2, Observer: rec, Trace: trace,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", algo, err)
		}
		if res == nil || !res.Incomplete || res.Len() != 0 || !errors.Is(res.StopCause, context.Canceled) {
			t.Fatalf("%v: result %+v, want empty, incomplete, canceled", algo, res)
		}
		assertStream(t, algo.String(), rec.Events())
		if n := countType(rec.Events(), EventLevelStart); n != 0 {
			t.Errorf("%v: %d levels opened", algo, n)
		}
		if stops := rec.ByType(EventStop); len(stops) != 1 || stops[0].Reason != "canceled" {
			t.Errorf("%v: stop events = %+v, want one canceled", algo, stops)
		}
		if len(trace.Loops) != 1 || trace.Loops[0].Name != "dataset/count" || trace.Loops[0].Load != nil {
			t.Errorf("%v: loops %v, want only an unrun dataset/count", algo, trace.Loops)
		}
	}
}

// TestWorkerPanicContained injects a panic at a scheduler chunk boundary
// in each of the three miners (past the shared first pass) and asserts the process survives: the team
// drains, and MineContext returns a *WorkerPanicError plus the partial
// result.
func TestWorkerPanicContained(t *testing.T) {
	defer sched.SetFaultHook(nil)
	db := runctlDB(t)
	for _, algo := range []Algorithm{Apriori, Eclat, FPGrowth} {
		gate := armMiningFault(nil, func(fc sched.FaultContext) {
			if fc.Seq == panicSeq {
				panic("injected worker fault")
			}
		})
		res, err := MineContext(context.Background(), db, 0.5,
			Options{Algorithm: algo, Representation: Tidset, Workers: 4, Observer: gate})
		sched.SetFaultHook(nil)

		var perr *WorkerPanicError
		if !errors.As(err, &perr) {
			t.Fatalf("%v: err = %v, want *WorkerPanicError", algo, err)
		}
		if perr.Value != "injected worker fault" {
			t.Errorf("%v: panic value = %v", algo, perr.Value)
		}
		if len(perr.Stack) == 0 {
			t.Errorf("%v: no stack captured", algo)
		}
		if res == nil || !res.Incomplete {
			t.Fatalf("%v: partial result missing or not marked Incomplete", algo)
		}
		if res.Len() == 0 {
			t.Errorf("%v: empty partial result; the panic did not land in the miner", algo)
		}
		assertExactSupports(t, db, res)
	}
}

// TestDegradeToDiffsetCompletes is the headline budget scenario: an
// Apriori tidset run on dense data whose level payloads blow past the
// memory budget must switch to diffsets mid-run and still produce the
// complete, exact answer.
func TestDegradeToDiffsetCompletes(t *testing.T) {
	db := runctlDB(t)
	ref, err := Mine(db, 0.5, Options{Algorithm: Apriori, Representation: Diffset})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := MineContext(context.Background(), db, 0.5, Options{
			Algorithm:        Apriori,
			Representation:   Tidset,
			Workers:          workers,
			MaxMemoryBytes:   100 << 10, // well under the tidset level footprint
			DegradeToDiffset: true,
		})
		if err != nil {
			t.Fatalf("x%d: err = %v", workers, err)
		}
		if !res.Degraded {
			t.Fatalf("x%d: run fit in 100KB without degrading; budget no longer binds", workers)
		}
		if res.Incomplete {
			t.Fatalf("x%d: degraded run did not complete: %v", workers, res.StopCause)
		}
		if !res.Equal(ref) {
			t.Errorf("x%d: degraded run disagrees with diffset reference", workers)
		}
	}
}

// TestDegradeBitvector: on this small dense database diffsets are
// *larger* than the 80-byte bitvectors, so a tight budget cannot be
// cured: rather than degrade to a bigger payload, the run stops with
// the memory *BudgetError, with exact supports for everything emitted.
func TestDegradeBitvector(t *testing.T) {
	db := runctlDB(t)
	res, err := MineContext(context.Background(), db, 0.5, Options{
		Algorithm:        Apriori,
		Representation:   Bitvector,
		Workers:          2,
		MaxMemoryBytes:   10 << 10,
		DegradeToDiffset: true,
	})
	var berr *BudgetError
	if !errors.As(err, &berr) || berr.Resource != "memory" {
		t.Fatalf("err = %v, want the memory *BudgetError", err)
	}
	if res == nil || res.Degraded || !res.Incomplete {
		t.Fatalf("result incomplete %v, degraded %v; want incomplete and not degraded", res.Incomplete, res.Degraded)
	}
	assertExactSupports(t, db, res)
}

// TestDegradeToDiffsetEclat: the same mid-run switch through Eclat's
// class-by-class miner.
func TestDegradeToDiffsetEclat(t *testing.T) {
	db := runctlDB(t)
	ref, err := Mine(db, 0.5, Options{Algorithm: Eclat, Representation: Diffset})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineContext(context.Background(), db, 0.5, Options{
		Algorithm:        Eclat,
		Representation:   Tidset,
		Workers:          2,
		MaxMemoryBytes:   100 << 10,
		DegradeToDiffset: true,
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if !res.Degraded {
		t.Fatal("run fit in 100KB without degrading; budget no longer binds")
	}
	if !res.Equal(ref) {
		t.Error("degraded eclat run disagrees with diffset reference")
	}
}

// TestDegradeNeverWeakensBudget is DegradeToDiffset's contract: it adds
// a one-time cure and never weakens the memory budget. Every {Apriori,
// Eclat} × kind (Eclat at depth 1 and at the default depth) and
// FP-growth runs at 1 and 2 workers with a budget a quarter of its
// unbudgeted serial peak, with and without DegradeToDiffset.
//
//   - A kind with no diffset form stops with the same memory
//     *BudgetError either way (and, at 1 worker, the same itemsets).
//   - A degradable kind either degrades or stops with a memory
//     *BudgetError; without DegradeToDiffset it stops.
//   - A degraded run emits exactly one degraded event, at a level ≥ 1,
//     and a degraded run that completes mines the unbudgeted answer.
func TestDegradeNeverWeakensBudget(t *testing.T) {
	db := runctlDB(t)
	type mineCase struct {
		algo  Algorithm
		kind  Representation
		depth int
	}
	var cases []mineCase
	for _, kind := range []Representation{Tidset, Bitvector, Diffset, Hybrid, Tiled, Nodeset} {
		cases = append(cases, mineCase{Apriori, kind, 0}, mineCase{Eclat, kind, 1}, mineCase{Eclat, kind, 0})
	}
	cases = append(cases, mineCase{FPGrowth, Tidset, 0})
	for _, c := range cases {
		name := fmt.Sprintf("%v/%v/depth%d", c.algo, c.kind, c.depth)
		opt := Options{Algorithm: c.algo, Representation: c.kind, EclatDepth: c.depth}
		// An observed run tracks its peak live bytes even unbudgeted.
		var rec EventRecorder
		opt.Observer = &rec
		full, err := Mine(db, 0.5, opt)
		if err != nil {
			t.Fatalf("%s unbudgeted: %v", name, err)
		}
		var peak int64
		for _, e := range rec.Events() {
			if e.Type == EventRunEnd {
				peak = e.PeakLiveBytes
			}
		}
		if peak == 0 {
			t.Fatalf("%s: no peak live bytes reported", name)
		}
		canDegrade := c.algo != FPGrowth && c.kind != Diffset && c.kind != Hybrid
		for _, workers := range []int{1, 2} {
			var stops [2]*BudgetError
			var lens [2]int
			for i, degrade := range []bool{false, true} {
				var rec EventRecorder
				opt := opt
				opt.Workers, opt.MaxMemoryBytes, opt.DegradeToDiffset = workers, peak/4, degrade
				opt.Observer = &rec
				res, err := Mine(db, 0.5, opt)
				label := fmt.Sprintf("%s workers=%d degrade=%v budget=%d", name, workers, degrade, peak/4)
				var berr *BudgetError
				if errors.As(err, &berr) {
					if berr.Resource != "memory" {
						t.Errorf("%s: stopped by %v, want the memory budget", label, err)
					}
					stops[i] = berr
				} else if err != nil {
					t.Errorf("%s: err = %v", label, err)
				}
				lens[i] = res.Len()
				var levels []int
				for _, e := range rec.Events() {
					if e.Type == EventDegraded {
						levels = append(levels, e.Level)
					}
				}
				switch {
				case res.Degraded && (len(levels) != 1 || levels[0] < 1):
					t.Errorf("%s: degraded with events at levels %v, want one at level ≥ 1", label, levels)
				case !res.Degraded && len(levels) != 0:
					t.Errorf("%s: degraded events %v but Result.Degraded unset", label, levels)
				}
				if res.Degraded && err == nil && !res.Equal(full) {
					t.Errorf("%s: degraded run disagrees with the unbudgeted run", label)
				}
				if !canDegrade || !degrade {
					if res.Degraded || stops[i] == nil {
						t.Errorf("%s: degraded=%v err=%v, want a memory stop", label, res.Degraded, err)
					}
				} else if !res.Degraded && stops[i] == nil {
					t.Errorf("%s: neither degraded nor stopped at a quarter of its peak", label)
				}
			}
			if canDegrade || stops[0] == nil || stops[1] == nil {
				continue
			}
			if stops[0].Limit != stops[1].Limit {
				t.Errorf("%s workers=%d: DegradeToDiffset changed the stop: %v vs %v", name, workers, stops[0], stops[1])
			}
			if workers == 1 && (lens[0] != lens[1] || stops[0].Used != stops[1].Used) {
				t.Errorf("%s workers=1: DegradeToDiffset changed the stop: %d itemsets (%v) vs %d (%v)",
					name, lens[0], stops[0], lens[1], stops[1])
			}
		}
	}
}

// TestMemoryBudgetStops: the same breach without DegradeToDiffset fails
// with a typed *BudgetError and a partial result whose supports are
// exact.
func TestMemoryBudgetStops(t *testing.T) {
	db := runctlDB(t)
	res, err := MineContext(context.Background(), db, 0.5, Options{
		Algorithm:      Apriori,
		Representation: Tidset,
		Workers:        2,
		MaxMemoryBytes: 100 << 10,
	})
	var berr *BudgetError
	if !errors.As(err, &berr) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if berr.Resource != "memory" {
		t.Errorf("Resource = %q, want memory", berr.Resource)
	}
	if berr.Used <= berr.Limit {
		t.Errorf("BudgetError reports used %d within limit %d", berr.Used, berr.Limit)
	}
	if res == nil || !res.Incomplete || res.Len() == 0 {
		t.Fatal("partial result missing, empty, or not marked Incomplete")
	}
	assertExactSupports(t, db, res)
}

// TestMaxItemsetsStops across all three miners.
func TestMaxItemsetsStops(t *testing.T) {
	db := runctlDB(t)
	for _, algo := range []Algorithm{Apriori, Eclat, FPGrowth} {
		res, err := MineContext(context.Background(), db, 0.5, Options{
			Algorithm:      algo,
			Representation: Diffset,
			MaxItemsets:    20,
		})
		var berr *BudgetError
		if !errors.As(err, &berr) || berr.Resource != "itemsets" {
			t.Fatalf("%v: err = %v, want itemsets *BudgetError", algo, err)
		}
		if res == nil || !res.Incomplete {
			t.Fatalf("%v: partial result missing or not marked Incomplete", algo)
		}
		assertExactSupports(t, db, res)
	}
}

// TestMaxDurationStops uses an injected per-chunk delay so the deadline
// reliably lands mid-run regardless of host speed.
func TestMaxDurationStops(t *testing.T) {
	defer sched.SetFaultHook(nil)
	sched.SetFaultHook(func(sched.FaultContext) { time.Sleep(5 * time.Millisecond) })
	db := runctlDB(t)
	res, err := MineContext(context.Background(), db, 0.5, Options{
		Algorithm:      Apriori,
		Representation: Tidset,
		Workers:        2,
		MaxDuration:    15 * time.Millisecond,
	})
	sched.SetFaultHook(nil)
	var berr *BudgetError
	if !errors.As(err, &berr) || berr.Resource != "duration" {
		t.Fatalf("err = %v, want duration *BudgetError", err)
	}
	if res == nil || !res.Incomplete {
		t.Fatal("partial result missing or not marked Incomplete")
	}
	assertExactSupports(t, db, res)
}

// TestMineContextDeadline: a context deadline behaves like cancellation,
// surfacing context.DeadlineExceeded.
func TestMineContextDeadline(t *testing.T) {
	defer sched.SetFaultHook(nil)
	sched.SetFaultHook(func(sched.FaultContext) { time.Sleep(5 * time.Millisecond) })
	db := runctlDB(t)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	res, err := MineContext(ctx, db, 0.5, Options{
		Algorithm:      Eclat,
		Representation: Tidset,
		Workers:        2,
	})
	sched.SetFaultHook(nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || !res.Incomplete {
		t.Fatal("partial result missing or not marked Incomplete")
	}
	assertExactSupports(t, db, res)
}

// TestMineContextCompleteRunUnaffected: a run that fits its budgets is
// byte-for-byte the same as an uncontrolled one.
func TestMineContextCompleteRunUnaffected(t *testing.T) {
	db := runctlDB(t)
	ref, err := Mine(db, 0.5, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(2)
	opt.MaxMemoryBytes = 1 << 30
	opt.MaxItemsets = 1 << 30
	opt.MaxDuration = time.Hour
	res, err := MineContext(context.Background(), db, 0.5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete || res.Degraded {
		t.Fatal("in-budget run marked Incomplete or Degraded")
	}
	if !res.Equal(ref) {
		t.Error("budgeted run disagrees with unbudgeted reference")
	}
}
