// The run's loop record. A miner opens one Loop per parallel loop, by
// name, and hands it to the team loop that runs it. Each loop has two
// optional halves:
//
//   - the measured half (Load), filled by the team: wall time and, per
//     worker, the busy time spent in chunk bodies, the iterations run
//     and the chunks claimed. The max/mean busy-time ratio is the
//     paper's load-imbalance quantity (§IV's argument for dynamic
//     chunk-1 scheduling on Eclat's skewed classes), measured on real
//     hardware;
//   - the modelled half (Model), charged by the miner: per-task bytes of
//     compute work, bytes read from parent payloads and bytes allocated,
//     plus the serial bytes around the loop and the unique-parent
//     working set. The NUMA machine simulator (package machine) replays
//     it under arbitrary thread counts with the same Chunker the team
//     uses.
//
// A nil *Record and a nil *Loop are valid everywhere and record
// nothing, so an unobserved, untraced run pays one nil check per site.

package sched

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Record holds the loops of one mining run, in open order. The zero
// value records both halves of every loop; NewMeasuredRecord returns
// one that keeps only measured halves.
type Record struct {
	// Loops holds every loop opened so far, in open order.
	Loops []*Loop

	measuredOnly bool
	obs          obs.Observer
	tracer       ChunkTracer
}

// NewMeasuredRecord returns a record that keeps no modelled halves: the
// record of a run that is observed but asked for no replay trace.
func NewMeasuredRecord() *Record { return &Record{measuredOnly: true} }

// ChunkTracer receives one call per executed scheduler chunk, from the
// worker goroutine that ran it, with the same start time and busy
// duration the measured half accounts — the hook behind the span
// timeline (obs.TraceRecorder implements it). Implementations must be
// safe for concurrent use and must not block for long.
type ChunkTracer interface {
	ChunkSpan(phase string, worker, lo, hi int, tasks int64, start time.Time, dur time.Duration)
}

// Observe attaches the run's sinks: o receives one phase_end event per
// measured loop as the team closes it, and t receives every executed
// chunk. Either may be nil. Call it before the run opens its loops.
// Nil-safe.
func (r *Record) Observe(o obs.Observer, t ChunkTracer) {
	if r == nil {
		return
	}
	r.obs, r.tracer = o, t
}

// Open appends a loop named name, run under s. Its modelled half, kept
// unless the record is measured-only, has tasks iterations; shared marks
// a loop whose parent data is shared machine-wide (Apriori's candidate
// levels) rather than worker-private (Eclat's per-class recursion), and
// the machine model charges remote-access penalties only to shared
// reads. The team fills the measured half when it runs the loop; a loop
// no team runs keeps none and emits no phase_end. On a nil record Open
// returns nil.
func (r *Record) Open(name string, s Schedule, tasks int, shared bool) *Loop {
	l := r.OpenMeasured(name, s)
	if l != nil && !r.measuredOnly {
		l.Model = &Model{
			Shared: shared,
			Work:   make([]int64, tasks),
			Remote: make([]int64, tasks),
			Alloc:  make([]int64, tasks),
		}
	}
	return l
}

// OpenMeasured appends a loop that the machine model does not replay:
// only the team fills it. On a nil record it returns nil.
func (r *Record) OpenMeasured(name string, s Schedule) *Loop {
	if r == nil {
		return nil
	}
	l := &Loop{Name: name, Schedule: s, rec: r}
	r.Loops = append(r.Loops, l)
	return l
}

// TotalWork sums modelled work over all loops, serial bytes included.
func (r *Record) TotalWork() int64 {
	return r.total(func(m *Model) int64 { return m.TotalWork() + m.Serial })
}

// TotalRemote sums modelled remote bytes over all loops.
func (r *Record) TotalRemote() int64 {
	return r.total((*Model).TotalRemote)
}

// TotalAlloc sums modelled allocated bytes over all loops.
func (r *Record) TotalAlloc() int64 {
	return r.total((*Model).TotalAlloc)
}

func (r *Record) total(f func(*Model) int64) int64 {
	if r == nil {
		return 0
	}
	var t int64
	for _, l := range r.Loops {
		if l.Model != nil {
			t += f(l.Model)
		}
	}
	return t
}

// Loop is one parallel loop of a run: its name and schedule, and the
// two halves. A loop is run by at most one team loop.
type Loop struct {
	Name     string
	Schedule Schedule
	// Load is the measured half; nil until a team runs the loop.
	Load *Load
	// Model is the modelled half; nil on a measured-only record and on
	// loops opened with OpenMeasured.
	Model *Model

	rec *Record
}

// Modelled reports whether the loop carries a modelled half, so that a
// miner computes a costly model input only when it is kept. Nil-safe.
func (l *Loop) Modelled() bool { return l != nil && l.Model != nil }

// Add accumulates modelled cost onto task i. It is safe for concurrent
// use by distinct i and by repeated calls for the same i from its owning
// worker. Nil-safe, and a no-op without a modelled half.
func (l *Loop) Add(i int, work, remote, alloc int64) {
	if !l.Modelled() {
		return
	}
	m := l.Model
	atomic.AddInt64(&m.Work[i], work)
	atomic.AddInt64(&m.Remote[i], remote)
	atomic.AddInt64(&m.Alloc[i], alloc)
}

// AddSerial accumulates modelled serial work around the loop. Nil-safe.
func (l *Loop) AddSerial(bytes int64) {
	if l.Modelled() {
		atomic.AddInt64(&l.Model.Serial, bytes)
	}
}

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

// Load is a loop's measured half: its iteration count, wall time and
// per-worker load. Workers is indexed by team-local worker id and sized
// to the workers that actually ran (the team size clamped to N).
type Load struct {
	// N is the team loop's iteration count.
	N int
	// Wall is the loop's start-to-finish time on the coordinator.
	Wall    time.Duration
	Workers []WorkerStats
}

// TotalTasks sums iterations executed across workers. On a loop that ran
// to completion it equals N; on a stopped loop it is the work done.
func (p *Load) TotalTasks() int64 {
	var t int64
	for _, w := range p.Workers {
		t += w.Tasks
	}
	return t
}

// TotalChunks sums chunks claimed across workers.
func (p *Load) TotalChunks() int64 {
	var t int64
	for _, w := range p.Workers {
		t += w.Chunks
	}
	return t
}

// MaxBusy returns the busiest worker's busy time.
func (p *Load) MaxBusy() time.Duration {
	var mx time.Duration
	for _, w := range p.Workers {
		mx = max(mx, w.Busy)
	}
	return mx
}

// MeanBusy returns the mean busy time over the loop's workers.
func (p *Load) MeanBusy() time.Duration {
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
func (p *Load) Imbalance() float64 {
	mean := p.MeanBusy()
	if mean <= 0 {
		return 1.0
	}
	return float64(p.MaxBusy()) / float64(mean)
}

// Model is a loop's modelled half. Work, Remote and Alloc are indexed by
// task: bytes touched, bytes read from parent payloads, bytes allocated.
type Model struct {
	Shared bool
	// Serial is the serial (single-threaded) work in bytes surrounding
	// the loop: candidate generation, pruning, commit. It bounds
	// scalability Amdahl-style.
	Serial int64
	// UniqueParent is the payload footprint, in bytes, of the parent
	// pool a single task's reads draw from. For Apriori this is the
	// whole previous level (breadth-first: any task reads any parent —
	// "Apriori must store all candidates for each generation"); for an
	// Eclat subtree task it is just its own equivalence class. The
	// machine model compares it against cache capacity to decide how
	// much of the Remote traffic actually crosses the interconnect: a
	// small working set stays cache-resident after first touch, one far
	// beyond capacity misses on every combine.
	UniqueParent int64
	Work         []int64
	Remote       []int64
	Alloc        []int64
}

// Tasks returns the number of modelled tasks. Nil-safe.
func (m *Model) Tasks() int {
	if m == nil {
		return 0
	}
	return len(m.Work)
}

// TotalWork sums per-task work.
func (m *Model) TotalWork() int64 { return sum(m.Work) }

// TotalRemote sums per-task remote bytes.
func (m *Model) TotalRemote() int64 { return sum(m.Remote) }

// TotalAlloc sums per-task allocated bytes.
func (m *Model) TotalAlloc() int64 { return sum(m.Alloc) }

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// loadRec is a loop's in-flight measured half. Workers write their own
// WorkerStats slot (distinct indices, no atomics; the coordinator's
// wg.Wait orders the writes before finish publishes the record).
type loadRec struct {
	l      *Loop
	start  time.Time
	tracer ChunkTracer
}

// begin opens the measured half of a team loop of n iterations on p
// workers. Returns nil on a nil loop.
func (l *Loop) begin(n, p int) *loadRec {
	if l == nil {
		return nil
	}
	l.Load = &Load{N: n, Workers: make([]WorkerStats, p)}
	return &loadRec{l: l, start: time.Now(), tracer: l.rec.tracer}
}

// finish stamps the wall time and forwards the loop to the record's
// observer as one phase_end event.
func (r *loadRec) finish() {
	if r == nil {
		return
	}
	ld := r.l.Load
	ld.Wall = time.Since(r.start)
	o := r.l.rec.obs
	if o == nil {
		return
	}
	e := obs.Event{
		Type:       obs.PhaseEnd,
		Phase:      r.l.Name,
		Schedule:   r.l.Schedule.String(),
		Candidates: ld.N,
		ElapsedNS:  int64(ld.Wall),
		Imbalance:  ld.Imbalance(),
	}
	for w, ws := range ld.Workers {
		e.Load = append(e.Load, obs.WorkerLoad{
			Worker: w, BusyNS: int64(ws.Busy), Tasks: ws.Tasks, Chunks: ws.Chunks,
		})
	}
	o.Event(e)
}

// addChunk accounts one executed chunk [lo, hi) for worker w, started
// at t0, and forwards it to the chunk tracer when one is attached. The
// same busy duration feeds both sinks, so span totals and load metrics
// agree by construction.
func (r *loadRec) addChunk(w, lo, hi int, tasks int64, t0 time.Time, busy time.Duration) {
	ws := &r.l.Load.Workers[w]
	ws.Busy += busy
	ws.Tasks += tasks
	ws.Chunks++
	if r.tracer != nil {
		r.tracer.ChunkSpan(r.l.Name, w, lo, hi, tasks, t0, busy)
	}
}
