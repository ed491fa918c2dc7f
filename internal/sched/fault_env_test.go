//go:build faultinject

package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runctl"
)

// TestParseFaultPlanRejectsGarbage: malformed plans fail loudly instead
// of silently arming a partial hook.
func TestParseFaultPlanRejectsGarbage(t *testing.T) {
	for _, plan := range []string{
		"",
		"panic",
		"panic:",
		"panic:0",
		"panic:-3",
		"panic:x",
		"panic:2:extra",
		"delay:1",
		"delay:1:x",
		"delay:1:-5",
		"cancel:1:9",
		"teleport:4",
	} {
		if _, err := ParseFaultPlan(plan); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted garbage", plan)
		}
	}
}

// TestParseFaultPlanPanic: an armed panic directive fires at exactly its
// chunk sequence and is contained like any worker panic.
func TestParseFaultPlanPanic(t *testing.T) {
	defer SetFaultHook(nil)
	hook, err := ParseFaultPlan("panic:3")
	if err != nil {
		t.Fatal(err)
	}
	SetFaultHook(hook)
	rc := runctl.New(context.Background(), runctl.Budget{})
	defer rc.Close()
	loopErr := NewTeam(2).ForCtx(rc, nil, 100, Schedule{Policy: Dynamic, Chunk: 5}, func(_, i int) {})
	var perr *runctl.WorkerPanicError
	if !errors.As(loopErr, &perr) {
		t.Fatalf("err = %v, want *runctl.WorkerPanicError", loopErr)
	}
}

// TestParseFaultPlanCancelAndDelay: a combined plan delays one chunk and
// cancels at a later one.
func TestParseFaultPlanCancelAndDelay(t *testing.T) {
	defer SetFaultHook(nil)
	hook, err := ParseFaultPlan(" delay:1:5 , cancel:4 ")
	if err != nil {
		t.Fatal(err)
	}
	SetFaultHook(hook)
	rc := runctl.New(context.Background(), runctl.Budget{})
	defer rc.Close()
	var ran atomic.Int64
	start := time.Now()
	loopErr := NewTeam(1).ForCtx(rc, nil, 100, Schedule{Policy: Dynamic, Chunk: 5}, func(_, i int) { ran.Add(1) })
	if !errors.Is(loopErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", loopErr)
	}
	if ran.Load() >= 100 {
		t.Error("loop ran to completion despite cancel directive")
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Error("delay directive did not sleep")
	}
}
