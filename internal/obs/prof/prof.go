// Package prof is the engine's CPU-attribution layer: pprof goroutine
// labels that slice any profile of the process — fimmine -cpuprofile,
// or /debug/pprof/ on fimserve — by mining run and search phase.
//
// Labels answer the question the paper's scalability analysis keeps
// asking — *where* does the CPU time go when the machine saturates —
// per run and per phase instead of per process. Do wraps a run's
// coordinator in pprof.Do with the run identity (fim_run_id, tenant,
// algorithm, representation); a PhaseLabeler riding the run's event
// stream re-labels the coordinator at every level_start, and because
// the scheduler spawns its worker goroutines fresh for each loop (see
// internal/sched), workers inherit the coordinator's label set at spawn
// — phase attribution costs the engine zero plumbing.
//
// The package depends only on the standard library.
package prof

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
)

// The profile label keys. `go tool pprof -tagshow` / tagfocus address
// samples by these names, so they are part of the profile schema.
const (
	// LabelRunID carries the serving layer's registry run ID (decimal),
	// the same correlation key stamped on events, traces and reports.
	LabelRunID = "fim_run_id"
	// LabelTenant carries the requesting tenant.
	LabelTenant = "fim_tenant"
	// LabelAlgo carries the algorithm name ("apriori", "eclat", ...).
	LabelAlgo = "fim_algo"
	// LabelRep carries the vertical representation name.
	LabelRep = "fim_rep"
	// LabelPhase carries the current search phase — the Phase string of
	// the run's level_start events ("eclat/subtrees", "apriori/gen2", ...)
	// — or PhaseSetup before the first level opens.
	LabelPhase = "fim_phase"
)

// PhaseSetup is the phase label before the first level_start: recode,
// vertical build, and every other cost the per-level accounting misses.
const PhaseSetup = "setup"

// RunLabels is the run identity stamped onto every CPU sample of a
// labeled run. Empty fields are omitted; a zero RunID is omitted too
// (one-shot CLI runs without an external identity keep algo/phase
// attribution only).
type RunLabels struct {
	RunID  int64
	Tenant string
	Algo   string
	Rep    string
}

// Do runs f with the run-identity labels (plus fim_phase=setup) applied
// to the current goroutine for the duration, restoring the previous
// label set afterwards. Goroutines started inside f — the scheduler's
// worker teams included — inherit the labels current at their spawn.
func Do(ctx context.Context, l RunLabels, f func(context.Context)) {
	kv := make([]string, 0, 10)
	if l.RunID != 0 {
		kv = append(kv, LabelRunID, strconv.FormatInt(l.RunID, 10))
	}
	if l.Tenant != "" {
		kv = append(kv, LabelTenant, l.Tenant)
	}
	if l.Algo != "" {
		kv = append(kv, LabelAlgo, l.Algo)
	}
	if l.Rep != "" {
		kv = append(kv, LabelRep, l.Rep)
	}
	kv = append(kv, LabelPhase, PhaseSetup)
	pprof.Do(ctx, pprof.Labels(kv...), f)
}

// PhaseLabeler is the Observer leg that keeps fim_phase current: on
// every level_start it re-labels the calling goroutine (the mining
// coordinator) with the event's Phase, merged over the run labels Do
// installed. Workers spawned for that level's scheduler loops inherit
// the updated set. It must be Armed from inside Do's function with Do's
// context before the run starts; events arriving unarmed are ignored.
type PhaseLabeler struct {
	ctx atomic.Pointer[context.Context]
}

// NewPhaseLabeler returns an unarmed labeler.
func NewPhaseLabeler() *PhaseLabeler { return &PhaseLabeler{} }

// Arm gives the labeler the labeled context to merge phase updates
// onto. Call it first inside Do's function, on the run's coordinator
// goroutine.
func (p *PhaseLabeler) Arm(ctx context.Context) {
	p.ctx.Store(&ctx)
}

// Event implements obs.Observer: level_start re-labels the current
// goroutine with the new phase. Other event kinds are ignored — and so
// are events on goroutines other than the one that will spawn workers;
// level_start is emitted by the coordinator before each expansion, so
// the label lands exactly where inheritance needs it.
func (p *PhaseLabeler) Event(e obs.Event) {
	if e.Type != obs.LevelStart || e.Phase == "" {
		return
	}
	ctxp := p.ctx.Load()
	if ctxp == nil {
		return
	}
	pprof.SetGoroutineLabels(pprof.WithLabels(*ctxp, pprof.Labels(LabelPhase, e.Phase)))
}
