package runctl

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestNilControl: every method of a nil *Control is a safe no-op, the
// contract that lets miners run without run control for free.
func TestNilControl(t *testing.T) {
	var c *Control
	c.Close()
	c.Stop(errors.New("ignored"))
	if c.Stopped() {
		t.Error("nil control reports stopped")
	}
	if c.Cause() != nil || c.Err() != nil {
		t.Error("nil control reports a cause")
	}
	c.ChargeMem(1 << 30)
	if c.MemUsed() != 0 || c.OverMemory() {
		t.Error("nil control accounts memory")
	}
	if err := c.CheckMemory(); err != nil {
		t.Errorf("CheckMemory = %v", err)
	}
	if err := c.AddItemsets(1 << 20); err != nil {
		t.Errorf("AddItemsets = %v", err)
	}
	if c.Itemsets() != 0 {
		t.Error("nil control counts itemsets")
	}
	if c.MaxItemsets() != 0 {
		t.Error("nil control has a budget")
	}
	c.EndCure()
	if cure, err := c.Breach(); cure || err != nil {
		t.Errorf("Breach = %v, %v", cure, err)
	}
}

// TestStopFirstCauseWins: concurrent stop reasons race; the first one
// recorded is the one reported, and later stops are no-ops.
func TestStopFirstCauseWins(t *testing.T) {
	c := New(context.Background(), Budget{})
	defer c.Close()
	first := errors.New("first")
	c.Stop(first)
	c.Stop(errors.New("second"))
	if !c.Stopped() {
		t.Fatal("not stopped")
	}
	if c.Cause() != first {
		t.Errorf("Cause = %v, want first", c.Cause())
	}
	if c.Err() != first {
		t.Errorf("Err = %v, want first", c.Err())
	}
	c.Stop(nil) // nil is ignored, not a reset
	if c.Cause() != first {
		t.Errorf("Cause after Stop(nil) = %v", c.Cause())
	}
}

// TestContextCancellation: cancelling the parent context raises the stop
// flag with context.Canceled, asynchronously via the watcher.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ctx, Budget{})
	defer c.Close()
	if c.Stopped() {
		t.Fatal("stopped before cancel")
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !c.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("stop flag never raised after cancel")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(c.Err(), context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", c.Err())
	}
}

// TestContextDoneBeforeNew: a context cancelled before the run starts
// stops it at once, with no wait for the watcher's goroutine.
func TestContextDoneBeforeNew(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(ctx, Budget{})
	defer c.Close()
	if !c.Stopped() || !errors.Is(c.Err(), context.Canceled) {
		t.Fatalf("stopped = %v, Err = %v; want stopped with context.Canceled", c.Stopped(), c.Err())
	}
}

// TestDeadlineContext: a context deadline surfaces as
// context.DeadlineExceeded.
func TestDeadlineContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	c := New(ctx, Budget{})
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for !c.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("stop flag never raised after deadline")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(c.Err(), context.DeadlineExceeded) {
		t.Errorf("Err = %v, want context.DeadlineExceeded", c.Err())
	}
}

// TestDurationBudget: MaxDuration stops the run with a typed
// *BudgetError naming the duration resource.
func TestDurationBudget(t *testing.T) {
	c := New(context.Background(), Budget{MaxDuration: 5 * time.Millisecond})
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for !c.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("stop flag never raised after duration budget")
		}
		time.Sleep(time.Millisecond)
	}
	var berr *BudgetError
	if !errors.As(c.Err(), &berr) || berr.Resource != "duration" {
		t.Errorf("Err = %v, want duration *BudgetError", c.Err())
	}
}

// TestMemoryBudget covers the charge/release accounting and the
// enforcement points without DegradeToDiffset: CheckMemory (hard stop),
// Err, and Breach, which never offers a cure here.
func TestMemoryBudget(t *testing.T) {
	c := New(context.Background(), Budget{MaxMemoryBytes: 1000})
	defer c.Close()
	c.ChargeMem(800)
	if c.OverMemory() {
		t.Fatal("over budget at 800/1000")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err below budget = %v", err)
	}
	if cure, err := c.Breach(); cure || err != nil {
		t.Fatalf("Breach below budget = %v, %v", cure, err)
	}
	c.ChargeMem(800)
	c.ChargeMem(-200) // release: 1400 live
	if got := c.MemUsed(); got != 1400 {
		t.Fatalf("MemUsed = %d, want 1400", got)
	}
	if !c.OverMemory() {
		t.Fatal("not over budget at 1400/1000")
	}
	if cure, _ := c.Breach(); cure {
		t.Fatal("Breach offered a cure without DegradeToDiffset")
	}
	err := c.CheckMemory()
	var berr *BudgetError
	if !errors.As(err, &berr) || berr.Resource != "memory" || berr.Limit != 1000 || berr.Used != 1400 {
		t.Fatalf("CheckMemory = %v, want memory *BudgetError 1400/1000", err)
	}
	if !c.Stopped() {
		t.Error("breach did not stop the run")
	}
}

// TestErrSkipsMemoryWhenDegradable: with DegradeToDiffset set, Err does
// not hard-stop on a memory breach while the cure bit is set — the miner
// decides at its next level boundary (Breach says cure) whether to
// degrade instead. Once EndCure clears the bit, Err and Breach both
// enforce the budget, and the bit never comes back.
func TestErrSkipsMemoryWhenDegradable(t *testing.T) {
	c := New(context.Background(), Budget{MaxMemoryBytes: 100, DegradeToDiffset: true})
	defer c.Close()
	c.ChargeMem(500)
	if err := c.Err(); err != nil {
		t.Fatalf("Err = %v, want nil under DegradeToDiffset", err)
	}
	if !c.OverMemory() {
		t.Fatal("OverMemory = false at 500/100")
	}
	if cure, err := c.Breach(); !cure || err != nil {
		t.Fatalf("Breach = %v, %v; want a cure while the bit is set", cure, err)
	}
	if c.Stopped() {
		t.Fatal("a curable breach stopped the run")
	}
	c.EndCure()
	c.EndCure() // idempotent
	err := c.Err()
	var berr *BudgetError
	if !errors.As(err, &berr) || berr.Resource != "memory" || berr.Used != 500 {
		t.Fatalf("Err after EndCure = %v, want memory *BudgetError 500/100", err)
	}
	if cure, err := c.Breach(); cure || !errors.As(err, &berr) {
		t.Fatalf("Breach after EndCure = %v, %v; want the memory stop", cure, err)
	}
}

// TestUnlimitedMemoryIsFree: with no memory budget, ChargeMem does not
// account at all (the hot path stays allocation- and contention-free).
func TestUnlimitedMemoryIsFree(t *testing.T) {
	c := New(context.Background(), Budget{})
	defer c.Close()
	c.ChargeMem(1 << 40)
	if c.MemUsed() != 0 || c.OverMemory() {
		t.Error("unbudgeted control accounted memory")
	}
}

// TestItemsetsBudget: AddItemsets trips exactly when the running total
// crosses the cap, and reports the totals in the error.
func TestItemsetsBudget(t *testing.T) {
	c := New(context.Background(), Budget{MaxItemsets: 10})
	defer c.Close()
	if err := c.AddItemsets(10); err != nil {
		t.Fatalf("AddItemsets(10) = %v at the cap", err)
	}
	err := c.AddItemsets(3)
	var berr *BudgetError
	if !errors.As(err, &berr) || berr.Resource != "itemsets" || berr.Limit != 10 || berr.Used != 13 {
		t.Fatalf("AddItemsets over cap = %v, want itemsets *BudgetError 13/10", err)
	}
	if !c.Stopped() {
		t.Error("itemsets breach did not stop the run")
	}
	if c.Itemsets() != 13 {
		t.Errorf("Itemsets = %d, want 13", c.Itemsets())
	}
}

// TestCloseReleasesWatchers: after Close, neither the context watcher
// nor the duration timer can stop the control anymore, and the control
// stays readable.
func TestCloseReleasesWatchers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := New(ctx, Budget{MaxDuration: 10 * time.Millisecond})
	c.Close()
	cancel()
	time.Sleep(30 * time.Millisecond) // would fire both watchers if live
	if c.Stopped() {
		t.Errorf("control stopped after Close: %v", c.Cause())
	}
}

// TestWorkerPanicErrorUnwrap: an error panic value is exposed through
// errors.Is/As via Unwrap.
func TestWorkerPanicErrorUnwrap(t *testing.T) {
	inner := errors.New("inner")
	perr := &WorkerPanicError{Value: inner, Worker: 2}
	if !errors.Is(perr, inner) {
		t.Error("errors.Is does not see the wrapped panic error")
	}
	plain := &WorkerPanicError{Value: "not an error"}
	if plain.Unwrap() != nil {
		t.Error("Unwrap of a non-error panic value is not nil")
	}
}

// TestBudgetErrorMessages: the messages name the resource and totals.
func TestBudgetErrorMessages(t *testing.T) {
	mem := &BudgetError{Resource: "memory", Limit: 100, Used: 150}
	if got := mem.Error(); got != "runctl: memory budget exhausted (used 150 of 100)" {
		t.Errorf("memory message = %q", got)
	}
	dur := &BudgetError{Resource: "duration", Limit: int64(time.Second), Used: int64(time.Second)}
	if got := dur.Error(); got != "runctl: duration budget exhausted (limit 1s)" {
		t.Errorf("duration message = %q", got)
	}
}
