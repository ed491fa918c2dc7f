// The span spine of the observability layer: where obs.Event is a
// point-in-time record, a Span is an interval — the run, one
// level/class stage, or one scheduler chunk executed by one worker.
// Spans are what make the paper's §IV scheduling argument visible as a
// picture: one timeline row per worker, chunks laid end to end, the
// static-schedule straggler tail appearing as one long bar while the
// dynamic rows stay dense. obs/export renders a recorded run as Chrome
// trace-event JSON loadable in Perfetto.

package obs

import (
	"sync"
	"time"
)

// Span categories. Cat says which coordinates of a Span are meaningful.
const (
	// SpanRun covers the whole mining run (coordinator row).
	SpanRun = "run"
	// SpanLevel covers one level/class stage, bounded by its
	// level_start/level_end events (coordinator row).
	SpanLevel = "level"
	// SpanChunk covers one scheduler chunk executed by one worker
	// (worker row); Lo/Hi are the chunk's iteration range.
	SpanChunk = "chunk"
)

// Span is one recorded interval. Worker is the team-local worker index
// for chunk spans and -1 for coordinator-row spans (run, level).
type Span struct {
	Name   string `json:"name"`
	Cat    string `json:"cat"`
	Worker int    `json:"worker"`
	// StartNS is a wall-clock stamp (unix nanoseconds); DurNS the
	// span's duration.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Lo, Hi carry a chunk span's iteration range; Tasks its iteration
	// count (Hi-Lo for a completed chunk, less for one cut short by a
	// stop check).
	Lo    int   `json:"lo,omitempty"`
	Hi    int   `json:"hi,omitempty"`
	Tasks int64 `json:"tasks,omitempty"`
}

// DefaultSpanLimit bounds a TraceRecorder's retained spans. A chunk
// span is ~80 bytes, so the cap holds the trace near 100 MB worst
// case; past it new spans are counted but dropped, keeping a
// pathological run (dynamic chunk 1 over millions of tasks) from
// exhausting memory to observe itself.
const DefaultSpanLimit = 1 << 20

// TraceRecorder records the span timeline of one mining run, race-free:
// chunk spans arrive concurrently from the scheduler's workers (it
// implements sched's chunk-tracer hook), run and level spans from the
// coordinator's event stream (it implements Observer, so it composes
// with other sinks through Multi). A nil *TraceRecorder is valid
// everywhere and records nothing.
type TraceRecorder struct {
	mu      sync.Mutex
	limit   int
	spans   []Span
	dropped int64
	workers int // max worker index seen + 1
	opened  map[string]levelOpen
	runOpen bool
	runAt   time.Time
	run     Event // run_start identity, for labeling
}

type levelOpen struct {
	at    time.Time
	level int
}

// NewTraceRecorder returns an empty recorder with DefaultSpanLimit.
func NewTraceRecorder() *TraceRecorder {
	return &TraceRecorder{limit: DefaultSpanLimit, opened: map[string]levelOpen{}}
}

// SetLimit caps retained spans (0 or negative restores the default).
// Call before the run starts.
func (t *TraceRecorder) SetLimit(n int) {
	if n <= 0 {
		n = DefaultSpanLimit
	}
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
}

// add appends s, honoring the span cap.
func (t *TraceRecorder) add(s Span) {
	if len(t.spans) >= t.limit {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// Event folds the run's event stream into coordinator-row spans: a
// level_start/level_end pair becomes one SpanLevel, the run_start/
// run_end pair one SpanRun. Timestamps are stamped at arrival, which
// is exact enough for the millisecond-scale stages the timeline shows.
func (t *TraceRecorder) Event(e Event) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.Type {
	case RunStart:
		t.runOpen = true
		t.runAt = now
		t.run = e
	case LevelStart:
		t.opened[e.Phase] = levelOpen{at: now, level: e.Level}
	case LevelEnd:
		if o, ok := t.opened[e.Phase]; ok {
			delete(t.opened, e.Phase)
			start := o.at
			// Prefer the miner's own wall-time measurement when the
			// event carries one: it brackets the stage exactly.
			if e.ElapsedNS > 0 {
				start = now.Add(-time.Duration(e.ElapsedNS))
			}
			t.add(Span{Name: e.Phase, Cat: SpanLevel, Worker: -1,
				StartNS: start.UnixNano(), DurNS: now.Sub(start).Nanoseconds()})
		}
	case RunEnd:
		if t.runOpen {
			t.runOpen = false
			name := t.run.Algorithm
			if name == "" {
				name = e.Algorithm
			}
			if name == "" {
				name = "run"
			}
			start := t.runAt
			if e.ElapsedNS > 0 {
				start = now.Add(-time.Duration(e.ElapsedNS))
			}
			t.add(Span{Name: name, Cat: SpanRun, Worker: -1,
				StartNS: start.UnixNano(), DurNS: now.Sub(start).Nanoseconds()})
		}
	}
}

// ChunkSpan records one scheduler chunk [lo, hi) executed by worker w —
// the sched.ChunkTracer hook the run's loop record forwards every chunk
// to, called from worker goroutines with the same start time and busy
// duration the record's measured half accounts.
func (t *TraceRecorder) ChunkSpan(phase string, w, lo, hi int, tasks int64, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if w >= t.workers {
		t.workers = w + 1
	}
	t.add(Span{Name: phase, Cat: SpanChunk, Worker: w,
		StartNS: start.UnixNano(), DurNS: dur.Nanoseconds(),
		Lo: lo, Hi: hi, Tasks: tasks})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans, in arrival order.
func (t *TraceRecorder) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Workers returns the number of worker rows the timeline needs (max
// worker index seen across chunk spans, plus one).
func (t *TraceRecorder) Workers() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.workers
}

// Dropped returns how many spans the cap discarded.
func (t *TraceRecorder) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Run returns the run_start event the recorder saw (zero Event if the
// run never started), for labeling exported timelines.
func (t *TraceRecorder) Run() Event {
	if t == nil {
		return Event{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.run
}

// BusyByWorker sums chunk-span durations per worker row — the
// timeline's own account of per-worker busy time, which the export
// validator cross-checks against the phase_end load metrics.
func (t *TraceRecorder) BusyByWorker() []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]time.Duration, t.workers)
	for _, s := range t.spans {
		if s.Cat == SpanChunk && s.Worker >= 0 && s.Worker < len(out) {
			out[s.Worker] += time.Duration(s.DurNS)
		}
	}
	return out
}
