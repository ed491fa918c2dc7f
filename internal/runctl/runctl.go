// Package runctl is the engine's run-control layer: cooperative
// cancellation, resource budgets, and typed stop reasons, threaded
// through every miner and checked by the scheduler at chunk boundaries.
//
// A Control is created per mining run (by fim.MineContext) from a
// context.Context and a Budget. The hot-path primitive is Stopped(), a
// single atomic load: context cancellation and the duration budget are
// turned into the same stop flag by background watchers, so workers
// never call time.Now or poll the context themselves. Err() is the
// chunk-boundary check: it additionally enforces the memory budget and
// records the first stop cause.
//
// A nil *Control is valid everywhere and disables all run control, so
// call sites pay one nil check when the feature is off.
package runctl

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Budget bounds a mining run's resource use. Zero fields mean
// "unlimited".
type Budget struct {
	// MaxMemoryBytes caps the live bytes the miners account via
	// ChargeMem: every kind's vertical payloads, FP-growth's chunk
	// trees and the level-2 pair-count tables while they are live. On
	// breach the run stops with a *BudgetError — unless the breach can
	// still be cured by degrading (see DegradeToDiffset and Breach).
	MaxMemoryBytes int64
	// MaxItemsets caps the number of frequent itemsets emitted.
	MaxItemsets int64
	// MaxDuration caps the run's wall-clock time.
	MaxDuration time.Duration
	// DegradeToDiffset lets Apriori/Eclat respond to a memory-budget
	// breach by converting the live payloads to diffsets (the paper's
	// own cure for the tidset/bitvector footprint blow-up, applied
	// adaptively) instead of stopping. It arms a one-time cure and never
	// weakens the budget (see EndCure).
	DegradeToDiffset bool
}

// BudgetError reports that a run exceeded one of its Budget limits.
type BudgetError struct {
	// Resource names the exhausted budget: "memory", "itemsets" or
	// "duration".
	Resource string
	// Limit and Used are in the resource's unit (bytes, itemsets,
	// nanoseconds).
	Limit, Used int64
}

func (e *BudgetError) Error() string {
	switch e.Resource {
	case "duration":
		return fmt.Sprintf("runctl: duration budget exhausted (limit %v)", time.Duration(e.Limit))
	default:
		return fmt.Sprintf("runctl: %s budget exhausted (used %d of %d)", e.Resource, e.Used, e.Limit)
	}
}

// WorkerPanicError reports a panic recovered inside a scheduler worker.
// The panic is contained: the remaining chunks are cancelled, the team
// drains, and the miner returns this error instead of crashing the
// process.
type WorkerPanicError struct {
	// Value is the recovered panic value.
	Value any
	// Worker is the team-local index of the worker that panicked.
	Worker int
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("runctl: worker %d panicked: %v", e.Worker, e.Value)
}

// Unwrap exposes a panic value that was itself an error.
func (e *WorkerPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Control is one run's cancellation and budget state. Construct with
// New and release with Close; a nil *Control disables run control.
type Control struct {
	budget   Budget
	trackMem bool
	stopped  atomic.Bool
	// curable (the cure bit) is true only while a memory breach can
	// still be cured by degrading to diffsets.
	curable atomic.Bool
	mem     atomic.Int64
	peak    atomic.Int64
	items   atomic.Int64

	mu    sync.Mutex
	cause error

	// Warning thresholds (SetWarnFunc): warnFracs is ascending budget
	// fractions; memWarnIdx/itemWarnIdx count thresholds already fired,
	// so each fires exactly once. warnMu serializes the (rare) firing.
	warnFn      func(resource string, frac float64, used, limit int64)
	warnFracs   []float64
	warnMu      sync.Mutex
	memWarnIdx  atomic.Int32
	itemWarnIdx atomic.Int32

	stopCtxWatch func() bool
	timer        *time.Timer

	// pool, when non-nil, is the shared capacity ledger this run's
	// memory deltas are mirrored into (AttachPool).
	pool *Pool
}

// New builds a Control for one run. ctx cancellation and the duration
// budget are propagated to the stop flag by watchers that Close
// releases; callers must Close the Control when the run returns.
func New(ctx context.Context, b Budget) *Control {
	c := &Control{budget: b}
	c.curable.Store(b.DegradeToDiffset)
	if ctx != nil && ctx.Done() != nil {
		// A context done already stops the run now, so its first check
		// sees the cause; the watcher would record it only once its own
		// goroutine runs.
		c.Stop(ctx.Err())
		c.stopCtxWatch = context.AfterFunc(ctx, func() { c.Stop(ctx.Err()) })
	}
	if b.MaxDuration > 0 {
		c.timer = time.AfterFunc(b.MaxDuration, func() {
			c.Stop(&BudgetError{Resource: "duration", Limit: int64(b.MaxDuration), Used: int64(b.MaxDuration)})
		})
	}
	return c
}

// Close releases the Control's watchers. The Control remains readable
// (Err, Stopped) after Close.
func (c *Control) Close() {
	if c == nil {
		return
	}
	if c.stopCtxWatch != nil {
		c.stopCtxWatch()
	}
	if c.timer != nil {
		c.timer.Stop()
	}
	c.releasePool()
}

// MaxItemsets returns the run's itemsets budget (0 = unlimited; 0 for a
// nil Control). Scheduler fault hooks use it to pick out the runs they
// inject into.
func (c *Control) MaxItemsets() int64 {
	if c == nil {
		return 0
	}
	return c.budget.MaxItemsets
}

// Stop records err as the run's stop cause and raises the stop flag.
// Only the first cause is kept; later calls are no-ops. A nil err is
// ignored. It reports whether this call recorded the cause — the
// winner of a racing stop, which accounting sites (the shared pool's
// breach counter) use to count each stopped run exactly once.
func (c *Control) Stop(err error) bool {
	if c == nil || err == nil {
		return false
	}
	c.mu.Lock()
	first := c.cause == nil
	if first {
		c.cause = err
	}
	c.mu.Unlock()
	c.stopped.Store(true)
	return first
}

// Stopped reports whether the run should unwind. It is a single atomic
// load, cheap enough for inner-loop checks.
func (c *Control) Stopped() bool {
	return c != nil && c.stopped.Load()
}

// Cause returns the recorded stop cause, or nil.
func (c *Control) Cause() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cause
}

// Err is the chunk-boundary check: it returns the stop cause if the run
// was stopped, and additionally enforces the memory budget unless the
// cure bit is set (a breach that degrading can still cure waits for the
// miner's next level boundary; see Breach).
func (c *Control) Err() error {
	if c == nil {
		return nil
	}
	if c.stopped.Load() {
		return c.Cause()
	}
	if !c.curable.Load() {
		if err := c.CheckMemory(); err != nil {
			return err
		}
	}
	return c.checkPool()
}

// EndCure clears the cure bit for good, so every chunk boundary enforces
// the memory budget: the run has no diffset form, has degraded, or has
// no level boundary left to degrade at.
func (c *Control) EndCure() {
	if c != nil {
		c.curable.Store(false)
	}
}

// Breach is the memory-budget decision at a level boundary: over budget
// with the cure bit set it reports cure and the caller must degrade now;
// over budget otherwise it stops the run with the memory *BudgetError.
func (c *Control) Breach() (cure bool, err error) {
	if c.OverMemory() && c.curable.Load() {
		return true, nil
	}
	return false, c.CheckMemory()
}

// TrackMemory enables live-payload accounting (and peak tracking) even
// without a memory budget, for observers that report footprint on
// unbudgeted runs. Call before mining starts.
func (c *Control) TrackMemory() {
	if c != nil {
		c.trackMem = true
	}
}

// SetWarnFunc arms budget warnings: fn fires once per fraction in fracs
// (ascending, each in (0, 1)) as the memory or itemsets budget fills,
// with the resource name, the fraction crossed, and the used/limit pair.
// fn is called from whichever mining goroutine crossed the threshold, so
// it must be safe for concurrent use with the rest of the run. Call
// before mining starts.
func (c *Control) SetWarnFunc(fracs []float64, fn func(resource string, frac float64, used, limit int64)) {
	if c == nil || fn == nil || len(fracs) == 0 {
		return
	}
	c.warnFracs = fracs
	c.warnFn = fn
}

// maybeWarn fires the not-yet-fired thresholds that used has crossed for
// one resource. The fast path (threshold not reached) is one atomic load
// and a float compare; firing serializes under warnMu.
func (c *Control) maybeWarn(resource string, idx *atomic.Int32, used, limit int64) {
	i := int(idx.Load())
	if i >= len(c.warnFracs) || float64(used) < c.warnFracs[i]*float64(limit) {
		return
	}
	c.warnMu.Lock()
	defer c.warnMu.Unlock()
	for int(idx.Load()) < len(c.warnFracs) {
		f := c.warnFracs[idx.Load()]
		if float64(used) < f*float64(limit) {
			return
		}
		idx.Add(1)
		c.warnFn(resource, f, used, limit)
	}
}

// ChargeMem accounts delta bytes of live payload (negative to release).
// Accounting runs when a memory budget is set or TrackMemory was called;
// otherwise this is a nil-check no-op.
func (c *Control) ChargeMem(delta int64) {
	if c == nil || (c.budget.MaxMemoryBytes <= 0 && !c.trackMem) {
		return
	}
	v := c.mem.Add(delta)
	if c.pool != nil {
		c.pool.charge(delta)
	}
	if delta <= 0 {
		return
	}
	for {
		p := c.peak.Load()
		if v <= p || c.peak.CompareAndSwap(p, v) {
			break
		}
	}
	if c.warnFn != nil && c.budget.MaxMemoryBytes > 0 {
		c.maybeWarn("memory", &c.memWarnIdx, v, c.budget.MaxMemoryBytes)
	}
}

// MaxMemory returns the run's memory budget in bytes (0 = unlimited; 0
// for a nil Control).
func (c *Control) MaxMemory() int64 {
	if c == nil {
		return 0
	}
	return c.budget.MaxMemoryBytes
}

// PeakMem returns the high-water mark of accounted live payload bytes.
func (c *Control) PeakMem() int64 {
	if c == nil {
		return 0
	}
	return c.peak.Load()
}

// MemUsed returns the currently accounted live payload bytes.
func (c *Control) MemUsed() int64 {
	if c == nil {
		return 0
	}
	return c.mem.Load()
}

// OverMemory reports whether the accounted payload exceeds the memory
// budget.
func (c *Control) OverMemory() bool {
	if c == nil || c.budget.MaxMemoryBytes <= 0 {
		return false
	}
	return c.mem.Load() > c.budget.MaxMemoryBytes
}

// CheckMemory stops the run with a memory BudgetError when the budget is
// breached, returning the error; otherwise nil.
func (c *Control) CheckMemory() error {
	if !c.OverMemory() {
		return nil
	}
	err := &BudgetError{Resource: "memory", Limit: c.budget.MaxMemoryBytes, Used: c.mem.Load()}
	c.Stop(err)
	return c.Cause()
}

// AddItemsets accounts n newly emitted frequent itemsets, stopping the
// run with an itemsets BudgetError when the budget is breached.
func (c *Control) AddItemsets(n int) error {
	if c == nil || n == 0 {
		return nil
	}
	total := c.items.Add(int64(n))
	if c.budget.MaxItemsets > 0 {
		if c.warnFn != nil {
			c.maybeWarn("itemsets", &c.itemWarnIdx, total, c.budget.MaxItemsets)
		}
		if total > c.budget.MaxItemsets {
			err := &BudgetError{Resource: "itemsets", Limit: c.budget.MaxItemsets, Used: total}
			c.Stop(err)
			return c.Cause()
		}
	}
	return nil
}

// Itemsets returns the number of itemsets accounted so far.
func (c *Control) Itemsets() int64 {
	if c == nil {
		return 0
	}
	return c.items.Load()
}
