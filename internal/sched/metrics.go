// Per-worker load metrics for the scheduler: when a Metrics is attached
// to a Team, every ForCtx/ForWeightedCtx loop records, per worker, the
// busy time spent executing chunk bodies, the iterations executed, and
// the chunks claimed. The max/mean busy-time ratio per loop is the
// paper's load-imbalance quantity (§IV's argument for dynamic chunk-1
// scheduling on Eclat's skewed classes), measured on real hardware
// instead of replayed in the machine simulator.
//
// A nil *Metrics is valid everywhere and records nothing; the worker
// loop pays one nil check per chunk when metrics are off.

package sched

import (
	"fmt"
	"sync"
	"time"
)

// WorkerStats is one worker's share of one loop.
type WorkerStats struct {
	// Busy is the time spent executing chunk bodies (hand-out waits and
	// stop checks between chunks excluded).
	Busy time.Duration
	// Tasks is the number of iterations the worker executed.
	Tasks int64
	// Chunks is the number of chunks the worker claimed.
	Chunks int64
}

// PhaseStats is the record of one scheduler loop: its label, schedule,
// iteration count, wall time, and per-worker load. Workers is indexed by
// team-local worker id and sized to the workers that actually ran (the
// team size clamped to the iteration count).
type PhaseStats struct {
	Name     string
	Schedule Schedule
	// N is the loop's iteration count.
	N int
	// Wall is the loop's start-to-finish time on the coordinator.
	Wall    time.Duration
	Workers []WorkerStats
}

// TotalTasks sums iterations executed across workers. On a loop that ran
// to completion it equals N; on a stopped loop it is the work done.
func (p *PhaseStats) TotalTasks() int64 {
	var t int64
	for _, w := range p.Workers {
		t += w.Tasks
	}
	return t
}

// TotalChunks sums chunks claimed across workers.
func (p *PhaseStats) TotalChunks() int64 {
	var t int64
	for _, w := range p.Workers {
		t += w.Chunks
	}
	return t
}

// MaxBusy returns the busiest worker's busy time.
func (p *PhaseStats) MaxBusy() time.Duration {
	var mx time.Duration
	for _, w := range p.Workers {
		if w.Busy > mx {
			mx = w.Busy
		}
	}
	return mx
}

// MeanBusy returns the mean busy time over the loop's workers.
func (p *PhaseStats) MeanBusy() time.Duration {
	if len(p.Workers) == 0 {
		return 0
	}
	var t time.Duration
	for _, w := range p.Workers {
		t += w.Busy
	}
	return t / time.Duration(len(p.Workers))
}

// Imbalance is the load-balance figure of merit: max busy time over mean
// busy time. 1.0 is a perfectly balanced loop; the static-vs-dynamic
// schedule ablation is the spread of this number. A loop with no
// measurable busy time reports 1.0.
func (p *PhaseStats) Imbalance() float64 {
	mean := p.MeanBusy()
	if mean <= 0 {
		return 1.0
	}
	return float64(p.MaxBusy()) / float64(mean)
}

// ChunkTracer receives one call per executed scheduler chunk, from the
// worker goroutine that ran it, with the same start time and busy
// duration the load metrics account — the hook behind the span
// timeline (obs.TraceRecorder implements it). Implementations must be
// safe for concurrent use and must not block for long.
type ChunkTracer interface {
	ChunkSpan(phase string, worker, lo, hi int, tasks int64, start time.Time, dur time.Duration)
}

// Metrics accumulates the PhaseStats of a run's loops. Attach one to a
// Team with SetMetrics; label the next loop with Label. Safe for
// concurrent use, though the miners run their loops sequentially.
type Metrics struct {
	mu      sync.Mutex
	pending string
	phases  []*PhaseStats
	drained int
	tracer  ChunkTracer
}

// NewMetrics returns an empty Metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// SetTracer attaches a chunk-span sink: every executed chunk of every
// subsequent loop is forwarded to t with its phase label, worker,
// iteration range and timing. nil detaches. Nil-safe.
func (m *Metrics) SetTracer(t ChunkTracer) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.tracer = t
	m.mu.Unlock()
}

// Label names the next loop recorded; unlabeled loops get "loop<k>".
// Nil-safe.
func (m *Metrics) Label(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.pending = name
	m.mu.Unlock()
}

// Phases returns the recorded loops so far (shared records, copied
// slice).
func (m *Metrics) Phases() []*PhaseStats {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*PhaseStats, len(m.phases))
	copy(out, m.phases)
	return out
}

// Last returns the most recently finished loop, or nil.
func (m *Metrics) Last() *PhaseStats {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.phases) == 0 {
		return nil
	}
	return m.phases[len(m.phases)-1]
}

// Drain returns the loops finished since the previous Drain, for sinks
// that forward each loop exactly once (the miners' phase_end events).
func (m *Metrics) Drain() []*PhaseStats {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.phases[m.drained:]
	m.drained = len(m.phases)
	return out
}

// phaseRec is one loop's in-flight record. Workers write their own
// WorkerStats slot (distinct indices, no atomics; the coordinator's
// wg.Wait orders the writes before finish publishes the record). The
// tracer reference is captured at begin so SetTracer mid-loop cannot
// race the workers.
type phaseRec struct {
	ps     *PhaseStats
	start  time.Time
	tracer ChunkTracer
}

// begin opens a loop record of n iterations on p workers, consuming the
// pending label. Returns nil on a nil Metrics.
func (m *Metrics) begin(n, p int, s Schedule) *phaseRec {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	name := m.pending
	m.pending = ""
	if name == "" {
		name = fmt.Sprintf("loop%d", len(m.phases)+1)
	}
	tracer := m.tracer
	m.mu.Unlock()
	return &phaseRec{
		ps:     &PhaseStats{Name: name, Schedule: s, N: n, Workers: make([]WorkerStats, p)},
		start:  time.Now(),
		tracer: tracer,
	}
}

// finish stamps the wall time and publishes the record.
func (r *phaseRec) finish(m *Metrics) {
	if r == nil {
		return
	}
	r.ps.Wall = time.Since(r.start)
	m.mu.Lock()
	m.phases = append(m.phases, r.ps)
	m.mu.Unlock()
}

// addChunk accounts one executed chunk [lo, hi) for worker w, started
// at t0, and forwards it to the chunk tracer when one is attached. The
// same busy duration feeds both sinks, so span totals and load metrics
// agree by construction.
func (r *phaseRec) addChunk(w, lo, hi int, tasks int64, t0 time.Time, busy time.Duration) {
	ws := &r.ps.Workers[w]
	ws.Busy += busy
	ws.Tasks += tasks
	ws.Chunks++
	if r.tracer != nil {
		r.tracer.ChunkSpan(r.ps.Name, w, lo, hi, tasks, t0, busy)
	}
}
