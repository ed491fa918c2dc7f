package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runctl"
)

// schedules covers every policy with and without an explicit chunk.
var robustSchedules = []Schedule{
	{Policy: Static},
	{Policy: Static, Chunk: 3},
	{Policy: Dynamic, Chunk: 1},
	{Policy: Dynamic, Chunk: 7},
	{Policy: Guided},
}

// TestForConcurrent runs many For loops on the same Team from many
// goroutines at once. The Team holds no per-loop state, so this must be
// race-free (meaningful under -race) and every loop must cover its full
// iteration space exactly once.
func TestForConcurrent(t *testing.T) {
	team := NewTeam(4)
	const loops, n = 16, 1000
	var wg sync.WaitGroup
	errs := make(chan string, loops)
	for l := 0; l < loops; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			s := robustSchedules[l%len(robustSchedules)]
			var hits [n]atomic.Int32
			team.For(n, s, func(_, i int) { hits[i].Add(1) })
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					errs <- fmt.Sprintf("loop %d (%v): iteration %d ran %d times", l, s, i, c)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestForCtxPanicContained proves a panic in the body does not crash the
// process: the team drains, the sibling workers stop, and the caller
// receives a *runctl.WorkerPanicError carrying the panic value and a
// stack trace.
func TestForCtxPanicContained(t *testing.T) {
	for _, s := range robustSchedules {
		for _, workers := range []int{1, 4} {
			team := NewTeam(workers)
			rc := runctl.New(context.Background(), runctl.Budget{})
			var ran atomic.Int32
			err := team.ForCtx(rc, nil, 500, s, func(_, i int) {
				if i == 137 {
					panic("boom at 137")
				}
				ran.Add(1)
			})
			rc.Close()
			var perr *runctl.WorkerPanicError
			if !errors.As(err, &perr) {
				t.Fatalf("%v x%d: err = %v, want *runctl.WorkerPanicError", s, workers, err)
			}
			if perr.Value != "boom at 137" {
				t.Errorf("%v x%d: panic value = %v", s, workers, perr.Value)
			}
			if len(perr.Stack) == 0 || !strings.Contains(string(perr.Stack), "robust_test") {
				t.Errorf("%v x%d: stack trace missing or foreign", s, workers)
			}
			if perr.Worker < 0 || perr.Worker >= workers {
				t.Errorf("%v x%d: worker index %d out of range", s, workers, perr.Worker)
			}
			// The panic must also have stopped the run's control, so
			// nested loops sharing rc drain too.
			if !rc.Stopped() {
				t.Errorf("%v x%d: control not stopped after panic", s, workers)
			}
		}
	}
}

// TestForPanicRethrown: the no-control For re-raises the contained panic
// as *runctl.WorkerPanicError on the caller's goroutine.
func TestForPanicRethrown(t *testing.T) {
	team := NewTeam(2)
	defer func() {
		r := recover()
		if _, ok := r.(*runctl.WorkerPanicError); !ok {
			t.Fatalf("recovered %T (%v), want *runctl.WorkerPanicError", r, r)
		}
	}()
	team.For(100, Schedule{Policy: Dynamic, Chunk: 1}, func(_, i int) {
		if i == 50 {
			panic("rethrown")
		}
	})
	t.Fatal("For returned instead of panicking")
}

// TestForCtxCancelMidChunk raises the stop flag while workers are inside
// a single huge static chunk, and asserts the loop unwinds within the
// cancellation stride rather than running the chunk to completion. The
// flag is raised synchronously via Stop (the same flag a cancelled
// context's watcher raises) so the bound is deterministic.
func TestForCtxCancelMidChunk(t *testing.T) {
	team := NewTeam(2)
	rc := runctl.New(context.Background(), runctl.Budget{})
	defer rc.Close()

	const n = 1 << 20 // two chunks of half a million iterations each
	var ran atomic.Int64
	const stopAt = 1000
	err := team.ForCtx(rc, nil, n, Schedule{Policy: Static}, func(_, i int) {
		if ran.Add(1) == stopAt {
			rc.Stop(context.Canceled)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// After Stop returns the flag is visible; each worker finishes at
	// most its current stride plus one more it may already have raced
	// into — a tiny fraction of the 2^20 iterations.
	if total := ran.Load(); total > stopAt+int64(team.Workers())*2*cancelStride {
		t.Errorf("ran %d iterations after stop at %d (stride %d)", total, stopAt, cancelStride)
	}
}

// TestForCtxCancelledBeforeLoop: a pre-cancelled control runs zero
// iterations.
func TestForCtxCancelledBeforeLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc := runctl.New(ctx, runctl.Budget{})
	defer rc.Close()
	// The AfterFunc watcher runs asynchronously; wait for the flag.
	for !rc.Stopped() {
		time.Sleep(time.Millisecond)
	}
	var ran atomic.Int64
	err := NewTeam(4).ForCtx(rc, nil, 1000, Schedule{Policy: Dynamic, Chunk: 1}, func(_, i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("pre-cancelled loop ran %d iterations", ran.Load())
	}
}

// TestFaultHookPanic injects a panic via the chunk-boundary hook and
// asserts containment — the mechanism the miner-level fault tests rely
// on.
func TestFaultHookPanic(t *testing.T) {
	defer SetFaultHook(nil)
	SetFaultHook(func(fc FaultContext) {
		if fc.Seq == 2 {
			panic("injected")
		}
	})
	rc := runctl.New(context.Background(), runctl.Budget{})
	defer rc.Close()
	err := NewTeam(2).ForCtx(rc, nil, 100, Schedule{Policy: Dynamic, Chunk: 5}, func(_, i int) {})
	var perr *runctl.WorkerPanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *runctl.WorkerPanicError", err)
	}
	if perr.Value != "injected" {
		t.Errorf("panic value = %v", perr.Value)
	}
}

// TestFaultHookCancel injects a stop via the hook's Control handle.
func TestFaultHookCancel(t *testing.T) {
	defer SetFaultHook(nil)
	SetFaultHook(func(fc FaultContext) {
		if fc.Seq == 3 {
			fc.Control.Stop(context.Canceled)
		}
	})
	rc := runctl.New(context.Background(), runctl.Budget{})
	defer rc.Close()
	var ran atomic.Int64
	err := NewTeam(1).ForCtx(rc, nil, 1000, Schedule{Policy: Dynamic, Chunk: 1}, func(_, i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() >= 1000 {
		t.Error("loop ran to completion despite injected cancel")
	}
}

// TestForCtxNilControl: a nil *Control must behave exactly like For —
// full coverage, no error — while keeping panic containment.
func TestForCtxNilControl(t *testing.T) {
	var hits [100]atomic.Int32
	err := NewTeam(3).ForCtx(nil, nil, 100, Schedule{Policy: Guided}, func(_, i int) { hits[i].Add(1) })
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
		}
	}
	err = NewTeam(3).ForCtx(nil, nil, 100, Schedule{Policy: Guided}, func(_, i int) { panic("nil-rc") })
	var perr *runctl.WorkerPanicError
	if !errors.As(err, &perr) {
		t.Fatalf("nil-control panic: err = %v, want *runctl.WorkerPanicError", err)
	}
}
