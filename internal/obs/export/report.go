package export

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// ReportSchema identifies the run-report JSON layout. Consumers should
// reject documents whose schema field differs.
const ReportSchema = "fim-run-report/v1"

// LevelReport is one level/class stage of the search, as reported by
// its level_start/level_end event pair.
type LevelReport struct {
	// Level is the itemset size the stage produced (0 when the stage
	// spans sizes, e.g. a whole depth-first recursion).
	Level int `json:"level,omitempty"`
	// Phase is the stage name ("apriori/gen3", "eclat/pairs", ...).
	Phase string `json:"phase"`
	// Candidates and Pruned count the stage's input: candidates
	// evaluated, and how many subset pruning removed before evaluation.
	Candidates int `json:"candidates"`
	Pruned     int `json:"pruned,omitempty"`
	// Frequent counts the stage's surviving (emitted) itemsets.
	Frequent int `json:"frequent"`
	// LiveBytes is the accounted live payload footprint after the stage
	// committed — the paper's Table IV per-level memory series.
	LiveBytes int64 `json:"live_bytes"`
	// ElapsedNS is the stage's wall time.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// PhaseReport is one scheduler loop's load-balance record.
type PhaseReport struct {
	Phase    string `json:"phase"`
	Schedule string `json:"schedule"`
	// N is the loop's iteration count.
	N int `json:"n"`
	// WallNS is the loop's wall time; Imbalance is max/mean per-worker
	// busy time (1.0 = perfectly balanced) — the paper's
	// static-vs-dynamic scheduling quantity, measured.
	WallNS    int64   `json:"wall_ns"`
	Imbalance float64 `json:"imbalance"`
	// Workers is the per-worker breakdown.
	Workers []obs.WorkerLoad `json:"workers,omitempty"`
}

// Warning is one budget_warning occurrence.
type Warning struct {
	Resource string  `json:"resource"`
	Fraction float64 `json:"fraction"`
	Used     int64   `json:"used"`
	Limit    int64   `json:"limit"`
}

// StopInfo describes why an incomplete run ended.
type StopInfo struct {
	// Reason is the stable classification ("canceled", "deadline",
	// "budget:memory", "budget:itemsets", "budget:duration",
	// "worker-panic", "error").
	Reason string `json:"reason"`
	// Error is the stop cause's Error() text.
	Error string `json:"error,omitempty"`
}

// Report is the machine-readable summary of one mining run, assembled
// from its event stream by ReportBuilder and emitted by fimmine
// -report. Schema is always ReportSchema.
type Report struct {
	Schema string `json:"schema"`

	// RunID is the run correlation identifier carried by the event
	// stream (obs.Event.RunID), present when the run was served under an
	// external identity — it joins this report to the service's
	// /runs record, SSE stream and fim_run_id profile labels of the
	// same run.
	RunID int64 `json:"run_id,omitempty"`

	// Run configuration (from run_start).
	Dataset        string `json:"dataset,omitempty"`
	Algorithm      string `json:"algorithm"`
	Representation string `json:"representation,omitempty"`
	Workers        int    `json:"workers"`
	MinSupport     int    `json:"min_support"`
	Transactions   int    `json:"transactions"`

	// Levels is the per-level series; Phases the per-scheduler-loop
	// load-balance series.
	Levels []LevelReport `json:"levels"`
	Phases []PhaseReport `json:"phases,omitempty"`

	// Control-plane history.
	Warnings        []Warning `json:"warnings,omitempty"`
	Degraded        bool      `json:"degraded,omitempty"`
	DegradedAtLevel int       `json:"degraded_at_level,omitempty"`
	Stop            *StopInfo `json:"stop,omitempty"`

	// KernelCounters holds the run's per-kernel operation totals
	// (kernel_counters event), keyed by kcount's wire names. Optional:
	// absent from reports of runs predating the counter layer.
	KernelCounters map[string]int64 `json:"kernel_counters,omitempty"`

	// Totals (from run_end).
	Itemsets      int64 `json:"itemsets"`
	MaxK          int   `json:"max_k"`
	PeakLiveBytes int64 `json:"peak_live_bytes"`
	Incomplete    bool  `json:"incomplete,omitempty"`
	ElapsedNS     int64 `json:"elapsed_ns"`

	// GeneratedUnixNS stamps when the report was finalized.
	GeneratedUnixNS int64 `json:"generated_unix_ns,omitempty"`
}

// MaxImbalance returns the worst scheduler-loop imbalance in the run
// (0 when no phases were recorded).
func (r *Report) MaxImbalance() float64 {
	var mx float64
	for _, p := range r.Phases {
		if p.Imbalance > mx {
			mx = p.Imbalance
		}
	}
	return mx
}

// ReportBuilder is an Observer that folds the event stream into a
// Report as it arrives. It is safe for concurrent use; Report is
// called after the run returns.
type ReportBuilder struct {
	mu     sync.Mutex
	r      Report
	opened map[string]obs.Event // phase -> pending level_start
}

// NewReportBuilder returns an empty builder.
func NewReportBuilder() *ReportBuilder {
	return &ReportBuilder{r: Report{Schema: ReportSchema}, opened: map[string]obs.Event{}}
}

// Event folds e into the report.
func (b *ReportBuilder) Event(e obs.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.r.RunID == 0 && e.RunID != 0 {
		b.r.RunID = e.RunID
	}
	switch e.Type {
	case obs.RunStart:
		b.r.Dataset = e.Dataset
		b.r.Algorithm = e.Algorithm
		b.r.Representation = e.Representation
		b.r.Workers = e.Workers
		b.r.MinSupport = e.MinSupport
		b.r.Transactions = e.Transactions
	case obs.LevelStart:
		b.opened[e.Phase] = e
	case obs.LevelEnd:
		lr := LevelReport{
			Level:      e.Level,
			Phase:      e.Phase,
			Candidates: e.Candidates,
			Pruned:     e.Pruned,
			Frequent:   e.Frequent,
			LiveBytes:  e.LiveBytes,
			ElapsedNS:  e.ElapsedNS,
		}
		// The opening event carries the candidate/pruned counts for
		// stages whose level_end omits them.
		if s, ok := b.opened[e.Phase]; ok {
			if lr.Candidates == 0 {
				lr.Candidates = s.Candidates
			}
			if lr.Pruned == 0 {
				lr.Pruned = s.Pruned
			}
			delete(b.opened, e.Phase)
		}
		b.r.Levels = append(b.r.Levels, lr)
	case obs.PhaseEnd:
		b.r.Phases = append(b.r.Phases, PhaseReport{
			Phase:     e.Phase,
			Schedule:  e.Schedule,
			N:         e.Candidates,
			WallNS:    e.ElapsedNS,
			Imbalance: e.Imbalance,
			Workers:   append([]obs.WorkerLoad(nil), e.Load...),
		})
	case obs.BudgetWarning:
		b.r.Warnings = append(b.r.Warnings, Warning{
			Resource: e.Resource, Fraction: e.Fraction, Used: e.Used, Limit: e.Limit,
		})
	case obs.Degraded:
		b.r.Degraded = true
		if b.r.DegradedAtLevel == 0 {
			b.r.DegradedAtLevel = e.Level
		}
	case obs.Stop:
		if b.r.Stop == nil {
			b.r.Stop = &StopInfo{Reason: e.Reason, Error: e.Err}
		}
	case obs.KernelCounters:
		if len(e.Counters) > 0 {
			b.r.KernelCounters = make(map[string]int64, len(e.Counters))
			for k, v := range e.Counters {
				b.r.KernelCounters[k] = v
			}
		}
	case obs.RunEnd:
		if b.r.Algorithm == "" {
			b.r.Algorithm = e.Algorithm
		}
		b.r.Itemsets = e.Itemsets
		b.r.MaxK = e.MaxK
		b.r.PeakLiveBytes = e.PeakLiveBytes
		b.r.Incomplete = e.Incomplete
		b.r.Degraded = b.r.Degraded || e.DegradedRun
		b.r.ElapsedNS = e.ElapsedNS
	}
}

// snapshot returns a deep copy of the report as built so far.
func (b *ReportBuilder) snapshot() *Report {
	b.mu.Lock()
	defer b.mu.Unlock()
	cp := b.r
	cp.Levels = append([]LevelReport(nil), b.r.Levels...)
	cp.Phases = make([]PhaseReport, len(b.r.Phases))
	for i, p := range b.r.Phases {
		cp.Phases[i] = p
		cp.Phases[i].Workers = append([]obs.WorkerLoad(nil), p.Workers...)
	}
	cp.Warnings = append([]Warning(nil), b.r.Warnings...)
	if b.r.Stop != nil {
		s := *b.r.Stop
		cp.Stop = &s
	}
	if b.r.KernelCounters != nil {
		cp.KernelCounters = make(map[string]int64, len(b.r.KernelCounters))
		for k, v := range b.r.KernelCounters {
			cp.KernelCounters[k] = v
		}
	}
	return &cp
}

// Report finalizes and returns the report, stamping GeneratedUnixNS.
func (b *ReportBuilder) Report() *Report {
	r := b.snapshot()
	r.GeneratedUnixNS = time.Now().UnixNano()
	return r
}

// WriteReport JSON-encodes r (indented) to w.
func WriteReport(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport decodes and validates one report document.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, err
	}
	if err := ValidateReport(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// ValidateReport checks a report document against the fim-run-report/v1
// schema invariants: schema tag, required identity fields, per-level
// count sanity, phase imbalance bounds, stop/incomplete coherence, and a
// level on every degraded run.
func ValidateReport(r *Report) error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("export: schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.Algorithm == "" {
		return fmt.Errorf("export: report missing algorithm")
	}
	if r.MinSupport < 1 {
		return fmt.Errorf("export: min_support %d below 1", r.MinSupport)
	}
	if r.Transactions < 0 || r.Itemsets < 0 || r.MaxK < 0 || r.PeakLiveBytes < 0 || r.ElapsedNS < 0 {
		return fmt.Errorf("export: negative totals")
	}
	for i, l := range r.Levels {
		if l.Phase == "" {
			return fmt.Errorf("export: level %d missing phase name", i)
		}
		if l.Candidates < 0 || l.Pruned < 0 || l.Frequent < 0 || l.LiveBytes < 0 || l.ElapsedNS < 0 {
			return fmt.Errorf("export: level %q has negative counts", l.Phase)
		}
		// No frequent<=candidates invariant: Eclat's expansion stages
		// count tasks as candidates, and one task can emit many itemsets.
	}
	for _, p := range r.Phases {
		if p.Phase == "" {
			return fmt.Errorf("export: phase record missing name")
		}
		if p.Imbalance != 0 && p.Imbalance < 1 {
			return fmt.Errorf("export: phase %q imbalance %v below 1", p.Phase, p.Imbalance)
		}
		var tasks int64
		for _, w := range p.Workers {
			if w.BusyNS < 0 || w.Tasks < 0 || w.Chunks < 0 {
				return fmt.Errorf("export: phase %q worker %d has negative counters", p.Phase, w.Worker)
			}
			tasks += w.Tasks
		}
		if len(p.Workers) > 0 && tasks != int64(p.N) {
			return fmt.Errorf("export: phase %q worker tasks sum %d != n %d", p.Phase, tasks, p.N)
		}
	}
	for k, v := range r.KernelCounters {
		if v < 0 {
			return fmt.Errorf("export: kernel counter %q negative (%d)", k, v)
		}
	}
	if r.Stop != nil && !r.Incomplete {
		return fmt.Errorf("export: stop recorded but run not marked incomplete")
	}
	if r.Incomplete && r.Stop == nil {
		return fmt.Errorf("export: incomplete run without stop record")
	}
	if r.Degraded && r.DegradedAtLevel < 1 {
		return fmt.Errorf("export: degraded run with degraded_at_level %d, want >= 1", r.DegradedAtLevel)
	}
	return nil
}

// ValidateEvents checks the ordering invariants of one run's event
// stream: exactly one run_start first and one run_end last, every
// level_end preceded by its phase's level_start, no phase opened twice
// without closing, and every degraded event at a level >= 1. The fault-injection tests and the obsvalidate
// tool run this over captured streams.
func ValidateEvents(events []obs.Event) error {
	if len(events) == 0 {
		return fmt.Errorf("export: empty event stream")
	}
	if events[0].Type != obs.RunStart {
		return fmt.Errorf("export: stream starts with %q, want run_start", events[0].Type)
	}
	if events[len(events)-1].Type != obs.RunEnd {
		return fmt.Errorf("export: stream ends with %q, want run_end", events[len(events)-1].Type)
	}
	open := map[string]bool{}
	seenEnd := map[string]int{}
	for i, e := range events {
		switch e.Type {
		case obs.RunStart:
			if i != 0 {
				return fmt.Errorf("export: run_start at position %d", i)
			}
		case obs.RunEnd:
			if i != len(events)-1 {
				return fmt.Errorf("export: run_end at position %d of %d", i, len(events)-1)
			}
		case obs.LevelStart:
			if open[e.Phase] {
				return fmt.Errorf("export: level %q opened twice", e.Phase)
			}
			open[e.Phase] = true
		case obs.LevelEnd:
			if !open[e.Phase] {
				return fmt.Errorf("export: level_end %q without level_start", e.Phase)
			}
			open[e.Phase] = false
			seenEnd[e.Phase]++
			if seenEnd[e.Phase] > 1 {
				return fmt.Errorf("export: level %q closed %d times", e.Phase, seenEnd[e.Phase])
			}
		case obs.Degraded:
			if e.Level < 1 {
				return fmt.Errorf("export: degraded event at level %d, want >= 1", e.Level)
			}
		case obs.PhaseEnd, obs.BudgetWarning, obs.Stop, obs.KernelCounters:
			// Interleaved control-plane events carry no ordering
			// obligation beyond being inside the run.
		default:
			return fmt.Errorf("export: unknown event type %q at position %d", e.Type, i)
		}
	}
	return nil
}
