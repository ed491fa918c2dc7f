// Package fim is a parallel frequent itemset mining library: a full
// reproduction of "Frequent Itemset Mining on Large-Scale Shared Memory
// Machines" (Zhang, Zhang & Bakos, IEEE CLUSTER 2011).
//
// It provides the paper's two parallel miners — Apriori (breadth-first,
// trie-of-level-tables candidates) and Eclat (depth-first equivalence
// classes) — over the paper's three vertical transaction representations
// (tidset, bitvector, diffset), plus an FP-growth baseline, association
// rule generation, closed/maximal condensation, synthetic equivalents of
// the paper's datasets, and a simulated NUMA machine that replays
// instrumented runs to reproduce the paper's 16–256-thread scalability
// tables and figures.
//
// Quick start:
//
//	db, _ := fim.ReadFIMIFile("retail.dat")
//	res, _ := fim.Mine(db, 0.02, fim.Options{
//		Algorithm: fim.Eclat,
//		Workers:   runtime.NumCPU(),
//	})
//	for _, c := range res.Decoded() {
//		fmt.Println(c.Items, c.Support)
//	}
//
// See the examples directory for runnable programs and cmd/fimbench for
// the paper's experiment harness.
package fim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/apriori"
	"repro/internal/assoc"
	"repro/internal/closed"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/datasets"
	"repro/internal/eclat"
	"repro/internal/fpgrowth"
	"repro/internal/kcount"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/runctl"
	"repro/internal/sched"
	"repro/internal/vertical"
)

// Algorithm selects the mining algorithm.
type Algorithm = core.Algorithm

// The supported algorithms.
const (
	Apriori  = core.Apriori
	Eclat    = core.Eclat
	FPGrowth = core.FPGrowth
)

// Representation selects the vertical transaction layout.
type Representation = vertical.Kind

// The paper's three vertical representations, plus three extensions:
// the Hybrid switch-over (Zaki's dEclat: tidsets that become diffsets
// when smaller), the Tiled layout (tidset semantics over fixed 128-TID
// tiles with occupancy-summary prefilters and a per-tile sparse/dense
// payload switch; see internal/tidset's Tiled type), and the Nodeset
// representation (Deng's DiffNodesets: PPC-tree node lists with linear
// merges; see internal/nodeset).
const (
	Tidset    = vertical.Tidset
	Bitvector = vertical.Bitvector
	Diffset   = vertical.Diffset
	Hybrid    = vertical.Hybrid
	Tiled     = vertical.Tiled
	Nodeset   = vertical.Nodeset
)

// ParseRepresentation maps a representation name ("tidset",
// "bitvector", "diffset", "hybrid", "tiled", "nodeset") to its
// Representation — the single parser every cmd shares, so a new kind
// becomes flag-reachable by joining vertical.ParseKind alone.
func ParseRepresentation(s string) (Representation, error) {
	return vertical.ParseKind(s)
}

// ParseAlgorithm maps an algorithm name ("apriori", "eclat",
// "fpgrowth") to its Algorithm, the one parser fimmine and fimserve
// share.
func ParseAlgorithm(s string) (Algorithm, error) {
	return core.ParseAlgorithm(s)
}

// CalibrationEnv named the environment variable that once pointed the
// binaries at a per-host kernel calibration file.
//
// Deprecated: nothing reads it. The kernels' merge/gallop ratio and
// tile crossover are compile-time constants.
const CalibrationEnv = "FIM_CALIBRATION"

// Re-exported core types. See the respective internal packages for the
// full method sets.
type (
	// DB is a horizontal transaction database.
	DB = dataset.DB
	// Result is the output of a mining run.
	Result = core.Result
	// ItemsetCount pairs an itemset with its support.
	ItemsetCount = core.ItemsetCount
	// Rule is an association rule.
	Rule = assoc.Rule
	// Trace is a run's loop record: one entry per parallel loop, with
	// the modelled byte costs Simulate replays and the measured
	// per-worker load. The zero value records both.
	Trace = sched.Record
	// MachineConfig describes a simulated NUMA machine.
	MachineConfig = machine.Config
	// SchedulePolicy names an OpenMP-style loop schedule.
	SchedulePolicy = sched.Policy
	// Schedule is a loop schedule: a policy and its chunk size (0 means
	// the policy's default chunk).
	Schedule = sched.Schedule
	// Observer receives the structured event stream of a mining run
	// (Options.Observer). Implementations must be safe for concurrent
	// use. See internal/obs for the event vocabulary and obs/export for
	// ready-made sinks (JSON lines, live progress, run reports, HTTP).
	Observer = obs.Observer
	// Event is one observation in the stream; Event.Type says which
	// fields are meaningful.
	Event = obs.Event
	// EventType names an event kind ("run_start", "level_end", ...).
	EventType = obs.Type
	// WorkerLoad is one worker's share of a scheduler loop, carried by
	// phase_end events.
	WorkerLoad = obs.WorkerLoad
	// EventRecorder is an Observer that retains every event in order —
	// the simplest sink.
	EventRecorder = obs.Recorder
	// SpanRecorder records the run's span timeline (run → level/class →
	// scheduler chunk, one row per worker) for Chrome trace-event
	// export (Options.SpanTrace; see obs/export's trace-file writer).
	SpanRecorder = obs.TraceRecorder
	// Span is one recorded interval of a span timeline.
	Span = obs.Span
)

// NewSpanRecorder returns an empty span-timeline recorder for
// Options.SpanTrace.
func NewSpanRecorder() *SpanRecorder { return obs.NewTraceRecorder() }

// The event kinds, re-exported from internal/obs.
const (
	EventRunStart       = obs.RunStart
	EventLevelStart     = obs.LevelStart
	EventLevelEnd       = obs.LevelEnd
	EventPhaseEnd       = obs.PhaseEnd
	EventBudgetWarning  = obs.BudgetWarning
	EventDegraded       = obs.Degraded
	EventStop           = obs.Stop
	EventKernelCounters = obs.KernelCounters
	EventRunEnd         = obs.RunEnd
)

// MultiObserver fans the event stream out to several observers. Nil
// entries are skipped; zero or one live observer keeps the cheap path.
func MultiObserver(os ...Observer) Observer { return obs.Multi(os...) }

// Loop schedule policies: the paper's three OpenMP schedules.
const (
	Static  = sched.Static
	Dynamic = sched.Dynamic
	Guided  = sched.Guided
)

// ParseSchedulePolicy maps a schedule name ("static", "dynamic",
// "guided") to its policy, for flag parsing.
func ParseSchedulePolicy(s string) (SchedulePolicy, error) { return sched.ParsePolicy(s) }

// Options configures Mine. The zero value mines with Apriori over
// tidsets (the zero Algorithm and Representation), which is sound but
// not the fastest configuration; DefaultOptions returns the paper's
// preferred one (parallel Eclat over diffsets).
type Options struct {
	// Algorithm selects the miner (Apriori, Eclat, FPGrowth).
	Algorithm Algorithm
	// Representation selects the vertical layout (Tidset, Bitvector,
	// Diffset, Hybrid, Tiled, Nodeset).
	Representation Representation
	// Workers is the parallel team size; 0 means serial. The first
	// pass (support count, recode and root payloads) runs on the same
	// team as the mining loops.
	Workers int
	// Schedule, when non-nil, overrides the algorithm's default loop
	// schedule (static for Apriori, dynamic chunk 1 for Eclat and
	// FP-growth).
	Schedule *Schedule
	// EclatDepth sets Eclat's flattening depth (see internal/eclat);
	// 0 uses the default.
	EclatDepth int
	// Trace, when non-nil, records the run's loops: the modelled byte
	// costs for NUMA replay via Simulate, and each loop's measured
	// per-worker load.
	Trace *Trace
	// Observer, when non-nil, receives the run's structured event stream
	// live: run_start, level/class boundaries with candidate and
	// frequent counts and live payload bytes, per-loop worker load with
	// busy-time imbalance, budget warnings, degrade transitions, the
	// stop cause, and run_end with totals and the peak footprint.
	// budget_warning fires at 50%, 80% and 95% of the memory and
	// itemsets budgets. A nil Observer costs the engine one branch per
	// emit site.
	Observer Observer
	// RunID, when non-zero, is a run correlation identifier stamped onto
	// every event the run emits (and therefore onto SSE streams and run
	// reports built from them). The serving layer sets it to the run's
	// registry ID so /runs records, SSE streams, traces, reports and
	// fim_run_id profile labels join on one key.
	RunID int64
	// ProfileLabels attaches pprof goroutine labels to the run: every
	// CPU-profile sample taken while the run executes carries fim_run_id
	// (when RunID is set), fim_tenant (when Tenant is set), fim_algo,
	// fim_rep and fim_phase — the current level_start phase name — so
	// `go tool pprof` can slice a service or CLI profile by run and by
	// search phase. Worker goroutines inherit the labels at spawn; the
	// cost is one label update per level, nothing per sample.
	ProfileLabels bool
	// Tenant is the requesting tenant for the fim_tenant profile label.
	// Only consulted when ProfileLabels is set.
	Tenant string
	// SpanTrace, when non-nil, records the run's span timeline: the run
	// and every level/class stage on a coordinator row, every scheduler
	// chunk on its worker's row, with real start times and durations.
	// Export it as Chrome trace-event JSON (Perfetto-loadable) with
	// obs/export's trace-file writer, or via fimmine -trace. The
	// recorder also receives the event stream, so it needs no entry in
	// Observer.
	SpanTrace *SpanRecorder

	// Run control. Zero values mean "unlimited"; see the package
	// documentation's "Run control" section and MineContext.
	//
	// MaxMemoryBytes caps the live bytes of the run: every kind's
	// vertical payloads, accounted per level/class from the actual
	// sizes, FP-growth's chunk trees, and the level-2 pair-count
	// tables while they are live. On breach the run stops with a
	// *BudgetError — or, when DegradeToDiffset is set on an
	// Apriori/Eclat run over tidsets, bitvectors, tiled tidsets or
	// nodesets, switches the live payloads to diffsets (the paper's own
	// footprint cure, applied adaptively) and continues. The switch happens only when
	// the diffsets, sized from supports, would be smaller than the
	// live payloads; otherwise the run stops with the *BudgetError.
	MaxMemoryBytes int64
	// MaxItemsets stops the run with a *BudgetError once more than this
	// many frequent itemsets have been emitted.
	MaxItemsets int64
	// MaxDuration stops the run with a *BudgetError after this much
	// wall-clock time.
	MaxDuration time.Duration
	// DegradeToDiffset turns a memory-budget breach into a mid-run
	// representation switch instead of an error, where the algorithm
	// and representation allow it: Apriori and Eclat over tidset,
	// bitvector, tiled or nodeset. It never weakens the budget: a run
	// that cannot degrade (diffset, hybrid, FP-growth), has degraded, or
	// is in Eclat's subtree stage stops on a breach as without it, and
	// so does a breach whose diffsets would take no fewer bytes than
	// the live payloads.
	DegradeToDiffset bool
	// SharedPool, when non-nil, joins the run to a machine-wide live-
	// payload capacity pool spanning concurrent runs (NewSharedPool).
	// The run's memory deltas are mirrored into the pool; when the
	// *pool* goes over capacity the run observing the breach stops with
	// a *BudgetError whose Resource is "shared-memory". This is the
	// serving layer's global memory budget: per-run MaxMemoryBytes
	// bounds one tenant, the pool bounds the machine.
	SharedPool *SharedPool
}

// SharedPool is a shared live-payload byte budget across concurrent
// mining runs (Options.SharedPool). See internal/runctl's Pool.
type SharedPool = runctl.Pool

// NewSharedPool returns a shared budget of capBytes live payload bytes
// across all runs attached to it. capBytes <= 0 tracks usage without a
// hard cap.
func NewSharedPool(capBytes int64) *SharedPool { return runctl.NewPool(capBytes) }

// BudgetError is the typed error a budget-stopped run returns; its
// Resource field names the exhausted budget ("memory", "itemsets",
// "duration"). The partial Result returned alongside it is still
// well-formed: Incomplete is set and every emitted support is exact.
type BudgetError = runctl.BudgetError

// WorkerPanicError reports a panic inside a mining worker, contained by
// the scheduler: the team drains cleanly and the panic surfaces as this
// error (with the worker's stack attached) instead of crashing the
// process.
type WorkerPanicError = runctl.WorkerPanicError

// budgetWarnAt are the budget fractions at which an observed run emits
// budget_warning events.
var budgetWarnAt = []float64{0.5, 0.8, 0.95}

// Mine finds all itemsets with relative support >= minSupport (a
// fraction of the transaction count, e.g. 0.02 for 2%) in db. It is
// MineContext with a background context.
//
// Every run codes the frequent items densely in ascending support
// order, ties by item id: rare items anchor the classes near the root,
// where Eclat's fan-out and diffsets are largest, and FP-growth's tree
// and the nodeset PPC tree, which insert in descending code order, put
// frequent items near their roots. Result holds these codes; Decoded
// maps them back to the original items.
func Mine(db *DB, minSupport float64, opt Options) (*Result, error) {
	return MineContext(context.Background(), db, minSupport, opt)
}

// MineContext is Mine under a context: the run checks ctx at every
// scheduler chunk boundary, the first pass's included, and at each
// level/class of the search, so cancelling ctx (or its deadline
// expiring) makes the miner drain its worker team promptly and return
// ctx's error together with a partial Result — Result.Incomplete is set
// and every itemset it holds has its exact support. A run stopped in
// the first pass returns an empty partial Result.
//
// The same machinery enforces Options' budgets (MaxMemoryBytes,
// MaxItemsets, MaxDuration), which stop the run with a *BudgetError or,
// for the memory budget under DegradeToDiffset, switch the run to
// diffsets mid-flight. A worker panic is contained and returned as a
// *WorkerPanicError instead of crashing the process.
func MineContext(ctx context.Context, db *DB, minSupport float64, opt Options) (*Result, error) {
	if db == nil {
		return nil, fmt.Errorf("fim: nil database")
	}
	if minSupport < 0 || minSupport > 1 {
		return nil, fmt.Errorf("fim: relative support %v outside [0, 1]", minSupport)
	}
	abs := db.AbsoluteSupport(minSupport)
	return MineAbsoluteContext(ctx, db, abs, opt)
}

// MineAbsolute is Mine with an absolute transaction-count threshold.
func MineAbsolute(db *DB, minSupport int, opt Options) (*Result, error) {
	return MineAbsoluteContext(context.Background(), db, minSupport, opt)
}

// MineAbsoluteContext is MineContext with an absolute transaction-count
// threshold.
func MineAbsoluteContext(ctx context.Context, db *DB, minSupport int, opt Options) (*Result, error) {
	if db == nil {
		return nil, fmt.Errorf("fim: nil database")
	}
	if minSupport < 1 {
		return nil, fmt.Errorf("fim: absolute support %d below 1", minSupport)
	}
	switch opt.Algorithm {
	case core.Apriori, core.Eclat, core.FPGrowth:
	default:
		return nil, fmt.Errorf("fim: unknown algorithm %v", opt.Algorithm)
	}
	if !slices.Contains(vertical.AllKinds(), opt.Representation) {
		return nil, fmt.Errorf("fim: unknown representation %v", opt.Representation)
	}
	if opt.Schedule != nil {
		if _, err := sched.ParsePolicy(opt.Schedule.Policy.String()); err != nil {
			return nil, fmt.Errorf("fim: unknown schedule policy %v", opt.Schedule.Policy)
		}
	}
	rc := runctl.New(ctx, runctl.Budget{
		MaxMemoryBytes:   opt.MaxMemoryBytes,
		MaxItemsets:      opt.MaxItemsets,
		MaxDuration:      opt.MaxDuration,
		DegradeToDiffset: opt.DegradeToDiffset,
	})
	defer rc.Close()
	if opt.SharedPool != nil {
		rc.AttachPool(opt.SharedPool)
	}
	copt := core.Options{
		Representation: opt.Representation,
		Workers:        opt.Workers,
		Record:         opt.Trace,
		Control:        rc,
		Schedule:       opt.Schedule,
		EclatDepth:     opt.EclatDepth,
	}
	// The span recorder rides the same event stream as the other sinks
	// and additionally taps the scheduler's chunk hook.
	o := opt.Observer
	if opt.SpanTrace != nil {
		o = obs.Multi(o, opt.SpanTrace)
	}
	// The phase labeler rides the event stream too: level_start events
	// are emitted on the coordinator goroutine before each expansion's
	// worker teams spawn, which is exactly where a pprof label update
	// must land for the workers to inherit it.
	var phaser *prof.PhaseLabeler
	if opt.ProfileLabels {
		phaser = prof.NewPhaseLabeler()
		o = obs.Multi(o, phaser)
	}
	if opt.RunID != 0 {
		o = obs.WithRunID(o, opt.RunID)
	}
	// An observed run records its loops' measured halves even when the
	// caller asked for no replay trace; the record sends the observer
	// one phase_end per loop and the span recorder every chunk.
	if o != nil && copt.Record == nil {
		copt.Record = sched.NewMeasuredRecord()
	}
	var tracer sched.ChunkTracer
	if opt.SpanTrace != nil {
		tracer = opt.SpanTrace
	}
	copt.Record.Observe(o, tracer)
	if o != nil {
		copt.Observer = o
		copt.Kernels = &kcount.Stats{}
		rc.TrackMemory()
		rc.SetWarnFunc(budgetWarnAt, func(resource string, frac float64, used, limit int64) {
			o.Event(obs.Event{Type: obs.BudgetWarning,
				Resource: resource, Fraction: frac, Used: used, Limit: limit})
		})
		o.Event(obs.Event{Type: obs.RunStart,
			Dataset:        db.Name,
			Algorithm:      opt.Algorithm.String(),
			Representation: opt.Representation.String(),
			Workers:        opt.Workers,
			MinSupport:     minSupport,
			Transactions:   len(db.Transactions),
		})
	}
	start := time.Now()
	var res *Result
	var err error
	runMine := func() {
		// The first pass runs on a team of the run's size, under its run
		// control and in its loop record, like every later loop.
		var rec *dataset.Recoded
		rec, err = db.RecodeOn(dataset.Pass{Team: sched.NewTeam(opt.Workers), Control: rc, Record: copt.Record},
			minSupport, dataset.ByFrequency)
		if err != nil {
			res = &Result{Algorithm: opt.Algorithm, Representation: opt.Representation, MinSup: minSupport,
				Rec:        &dataset.Recoded{DB: &DB{Name: db.Name}, MinSup: minSupport, Universe: len(db.Transactions)},
				Incomplete: true, StopCause: err}
			return
		}
		switch opt.Algorithm {
		case core.Apriori:
			res, err = apriori.Mine(rec, minSupport, copt)
		case core.Eclat:
			res, err = eclat.Mine(rec, minSupport, copt)
		case core.FPGrowth:
			res, err = fpgrowth.Mine(rec, minSupport, copt)
		}
	}
	if opt.ProfileLabels {
		// Every CPU sample of the run — coordinator and inherited worker
		// goroutines alike — carries the run identity; the labeler keeps
		// fim_phase current as levels open.
		prof.Do(ctx, prof.RunLabels{
			RunID:  opt.RunID,
			Tenant: opt.Tenant,
			Algo:   opt.Algorithm.String(),
			Rep:    opt.Representation.String(),
		}, func(lctx context.Context) {
			phaser.Arm(lctx)
			runMine()
		})
	} else {
		runMine()
	}
	if o != nil {
		o.Event(obs.Event{Type: obs.KernelCounters, Counters: copt.Kernels.Map()})
		if err != nil {
			o.Event(obs.Event{Type: obs.Stop, Reason: StopReason(err), Err: err.Error()})
		}
		e := obs.Event{Type: obs.RunEnd,
			Algorithm:     opt.Algorithm.String(),
			ElapsedNS:     int64(time.Since(start)),
			PeakLiveBytes: rc.PeakMem(),
		}
		if res != nil {
			e.Itemsets = int64(res.Len())
			e.MaxK = res.MaxK
			e.Incomplete = res.Incomplete
			e.DegradedRun = res.Degraded
		}
		o.Event(e)
	}
	return res, err
}

// StopReason classifies the error an incomplete run returned into the
// stable reason strings carried by stop events: "worker-panic",
// "budget:memory" / "budget:itemsets" / "budget:duration", "canceled",
// "deadline", or "error" for anything else.
func StopReason(err error) string {
	var wp *runctl.WorkerPanicError
	var be *runctl.BudgetError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &wp):
		return "worker-panic"
	case errors.As(err, &be):
		return "budget:" + be.Resource
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	}
	return "error"
}

// DefaultOptions returns the paper's preferred configuration: parallel
// Eclat over diffsets.
func DefaultOptions(workers int) Options {
	return Options{Algorithm: Eclat, Representation: Diffset, Workers: workers}
}

// ReadFIMI parses a database in FIMI repository text format (one
// transaction per line, space-separated non-negative integer items).
// It applies no size limits; parse untrusted input with
// ReadFIMILimits.
func ReadFIMI(name string, r io.Reader) (*DB, error) {
	return dataset.ReadFIMI(name, r)
}

// FIMILimits bounds what ReadFIMILimits accepts: maximum line length,
// transaction count, and total item occurrences. Zero fields mean "no
// limit on this axis".
type FIMILimits = dataset.Limits

// FIMIParseError is the typed error malformed or over-limit FIMI input
// fails with, carrying the input name, 1-based line number, offending
// token (empty for limit breaches) and message.
type FIMIParseError = dataset.ParseError

// ReadFIMILimits is ReadFIMI under explicit input limits, for untrusted
// sources such as service uploads: a breach fails fast with a typed
// *FIMIParseError instead of ballooning the process.
func ReadFIMILimits(name string, r io.Reader, lim FIMILimits) (*DB, error) {
	return dataset.ReadFIMILimits(name, r, lim)
}

// ReadFIMIFile reads a FIMI-format file from disk.
func ReadFIMIFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadFIMI(path, f)
}

// WriteFIMI writes db in FIMI text format.
func WriteFIMI(w io.Writer, db *DB) error {
	return dataset.WriteFIMI(w, db)
}

// Rules derives association rules with confidence >= minConfidence from
// a mining result.
func Rules(res *Result, minConfidence float64) []Rule {
	return assoc.Generate(res, minConfidence)
}

// DecodeRule maps a rule back to the database's original item codes.
func DecodeRule(res *Result, r Rule) Rule {
	return assoc.Decode(res, r)
}

// TopRulesByLift returns the n highest-lift rules.
func TopRulesByLift(rules []Rule, n int) []Rule {
	return assoc.TopByLift(rules, n)
}

// ClosedItemsets filters a result to its closed itemsets (no superset
// with equal support).
func ClosedItemsets(res *Result) []ItemsetCount {
	return closed.Closed(res)
}

// MaximalItemsets filters a result to its maximal itemsets (no frequent
// superset).
func MaximalItemsets(res *Result) []ItemsetCount {
	return closed.Maximal(res)
}

// Dataset builds one of the paper's synthetic datasets by name (chess,
// mushroom, pumsb, pumsb_star, T40I10D100K, accidents) at the given
// scale (1 = published transaction count).
func Dataset(name string, scale float64) (*DB, error) {
	d, err := datasets.Get(name)
	if err != nil {
		return nil, err
	}
	return d.Build(scale), nil
}

// DatasetNames lists the available synthetic datasets.
func DatasetNames() []string {
	var names []string
	for _, d := range datasets.All() {
		names = append(names, d.Name)
	}
	return names
}

// Blacklight returns the simulated machine configuration of the paper's
// testbed.
func Blacklight() MachineConfig { return machine.Blacklight() }

// Simulate replays a recorded trace (Options.Trace) on a simulated NUMA
// machine at the given thread count, returning the simulated seconds.
func Simulate(trace *Trace, threads int, cfg MachineConfig) float64 {
	return machine.Simulate(trace, threads, cfg).Seconds
}

// SimulateSpeedup returns the simulated speedup curve of a trace over
// the given thread counts, relative to one thread.
func SimulateSpeedup(trace *Trace, threads []int, cfg MachineConfig) []float64 {
	_, speedups := machine.Speedup(trace, threads, cfg)
	return speedups
}
