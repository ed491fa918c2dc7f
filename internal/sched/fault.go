// Fault injection for the scheduler: a hook invoked at every chunk
// boundary of ForCtx/ForWeightedCtx, used by the robustness tests to
// inject panics, delays, and cancellations at chosen points and prove
// the miners unwind cleanly.
//
// The hook itself is a single atomic pointer load per chunk — nil (and
// therefore free) in production. The environment-driven installer that
// arms it from SCHED_FAULT without code changes is gated behind the
// `faultinject` build tag (fault_env.go), so release binaries cannot be
// armed from the outside.

package sched

import (
	"sync/atomic"

	"repro/internal/runctl"
)

// FaultContext describes one chunk boundary: which worker is about to
// run chunk [Lo, Hi), the 1-based global sequence number of the chunk
// across all loops since the hook was installed, and the run's Control
// (nil for loops without run control) so a fault can cancel the run.
type FaultContext struct {
	Worker, Lo, Hi int
	Seq            int64
	Control        *runctl.Control
}

type faultFn func(FaultContext)

var (
	faultHook atomic.Pointer[faultFn]
	faultSeq  atomic.Int64
)

// SetFaultHook installs fn as the chunk-boundary fault hook and resets
// the chunk sequence counter; nil uninstalls it. The hook may panic
// (contained like any body panic), sleep, or stop the run via
// FaultContext.Control. Intended for tests.
func SetFaultHook(fn func(FaultContext)) {
	faultSeq.Store(0)
	if fn == nil {
		faultHook.Store(nil)
		return
	}
	f := faultFn(fn)
	faultHook.Store(&f)
}

// injectFault fires the hook, if installed, before a chunk runs.
func injectFault(w, lo, hi int, rc *runctl.Control) {
	h := faultHook.Load()
	if h == nil {
		return
	}
	(*h)(FaultContext{Worker: w, Lo: lo, Hi: hi, Seq: faultSeq.Add(1), Control: rc})
}
