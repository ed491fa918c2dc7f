package export

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/obs"
)

// Trace-file export: renders an obs.TraceRecorder's span timeline as
// Chrome trace-event JSON (the "JSON Object Format" of the Trace Event
// spec), loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// The layout puts the run and level/class spans on a "coordinator" row
// (tid 0) and each worker's scheduler chunks on its own row (tid
// worker+1), so schedule imbalance — the paper's §IV static-vs-dynamic
// argument — is visible directly: under schedule(static) one row's bar
// runs long past the others; under dynamic chunk-1 the rows end
// together.

// TracePID is the single process id all rows share.
const TracePID = 1

// TraceEvent is one Chrome trace-event object. Only the "X" (complete
// event) and "M" (metadata) phases are emitted; ts and dur are
// microseconds, as the format requires.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the exported document.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// BuildTrace converts a recorded span timeline into a trace file.
// Timestamps are re-based so the earliest span starts at ts 0; a
// thread_name metadata event labels every row; kernel counters (when
// the caller has them, e.g. from the run report) may be attached to
// the run span by the caller via the returned file's first "run" span.
func BuildTrace(t *obs.TraceRecorder) *TraceFile {
	spans := t.Spans()
	tf := &TraceFile{DisplayTimeUnit: "ms"}

	// Row labels: coordinator plus one row per worker, present even for
	// workers whose chunks were all dropped by the span cap.
	tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
		Name: "thread_name", Ph: "M", PID: TracePID, TID: 0,
		Args: map[string]any{"name": "coordinator"},
	})
	for w := 0; w < t.Workers(); w++ {
		tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
			Name: "thread_name", Ph: "M", PID: TracePID, TID: w + 1,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", w)},
		})
	}

	var base int64 = math.MaxInt64
	for _, s := range spans {
		if s.StartNS < base {
			base = s.StartNS
		}
	}
	for _, s := range spans {
		ev := TraceEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			TS:   float64(s.StartNS-base) / 1e3,
			Dur:  float64(s.DurNS) / 1e3,
			PID:  TracePID,
			TID:  s.Worker + 1, // coordinator spans carry Worker -1
		}
		if s.Cat == obs.SpanChunk {
			ev.Args = map[string]any{"lo": s.Lo, "hi": s.Hi, "tasks": s.Tasks}
		}
		if run := t.Run(); s.Cat == obs.SpanRun && run.Algorithm != "" {
			ev.Args = map[string]any{
				"algorithm":      run.Algorithm,
				"representation": run.Representation,
				"workers":        run.Workers,
				"dataset":        run.Dataset,
			}
		}
		tf.TraceEvents = append(tf.TraceEvents, ev)
	}
	if d := t.Dropped(); d > 0 {
		tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
			Name: "spans_dropped", Ph: "M", PID: TracePID, TID: 0,
			Args: map[string]any{"count": d},
		})
	}
	return tf
}

// WriteTrace JSON-encodes tf to w.
func WriteTrace(w io.Writer, tf *TraceFile) error {
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// ReadTraceFile decodes and schema-validates one trace document.
func ReadTraceFile(r io.Reader) (*TraceFile, error) {
	var tf TraceFile
	if err := json.NewDecoder(r).Decode(&tf); err != nil {
		return nil, err
	}
	if err := ValidateTrace(&tf); err != nil {
		return nil, err
	}
	return &tf, nil
}

// ValidateTrace checks the Chrome trace-event schema invariants the
// exporter guarantees: only X/M phases, named events, non-negative
// timestamps and durations, one pid, a thread_name metadata row for
// every tid used by a span, and chunk spans only on worker rows (tid
// >= 1).
func ValidateTrace(tf *TraceFile) error {
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("export: empty trace")
	}
	named := map[int]bool{}
	used := map[int]bool{}
	for i, e := range tf.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("export: trace event %d unnamed", i)
		}
		if e.PID != TracePID {
			return fmt.Errorf("export: trace event %d pid %d, want %d", i, e.PID, TracePID)
		}
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				named[e.TID] = true
			}
		case "X":
			if e.TS < 0 || e.Dur < 0 {
				return fmt.Errorf("export: trace event %d (%s) negative ts/dur", i, e.Name)
			}
			if e.TID < 0 {
				return fmt.Errorf("export: trace event %d (%s) negative tid", i, e.Name)
			}
			if e.Cat == obs.SpanChunk && e.TID < 1 {
				return fmt.Errorf("export: chunk span %q on non-worker row %d", e.Name, e.TID)
			}
			if (e.Cat == obs.SpanRun || e.Cat == obs.SpanLevel) && e.TID != 0 {
				return fmt.Errorf("export: %s span %q off the coordinator row (tid %d)", e.Cat, e.Name, e.TID)
			}
			used[e.TID] = true
		default:
			return fmt.Errorf("export: trace event %d (%s) unsupported phase %q", i, e.Name, e.Ph)
		}
	}
	for tid := range used {
		if !named[tid] {
			return fmt.Errorf("export: row tid %d has spans but no thread_name metadata", tid)
		}
	}
	return nil
}

// WorkerRows returns the worker tids (>= 1) that carry chunk spans,
// ascending — the timeline rows the acceptance check counts.
func (tf *TraceFile) WorkerRows() []int {
	set := map[int]bool{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" && e.Cat == obs.SpanChunk {
			set[e.TID] = true
		}
	}
	rows := make([]int, 0, len(set))
	for tid := range set {
		rows = append(rows, tid)
	}
	sort.Ints(rows)
	return rows
}

// chunkBusyByWorker sums chunk-span durations (ns) per worker index.
func (tf *TraceFile) chunkBusyByWorker() map[int]int64 {
	busy := map[int]int64{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" && e.Cat == obs.SpanChunk {
			busy[e.TID-1] += int64(e.Dur * 1e3)
		}
	}
	return busy
}

// CrossCheckTrace verifies that the trace's per-worker chunk-span
// totals agree with the event stream's phase_end load metrics
// (the busy time of each loop record's measured half) within tol
// (fractional, e.g. 0.05 = 5%).
// Both derive from the same per-chunk timing, so on a complete trace
// they match to rounding; a slack floor absorbs microsecond
// quantization on near-idle workers. A trace whose span cap dropped
// chunks cannot be cross-checked and fails with a distinct error.
func CrossCheckTrace(tf *TraceFile, events []obs.Event, tol float64) error {
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" && e.Name == "spans_dropped" {
			return fmt.Errorf("export: trace dropped spans; busy-time cross-check impossible")
		}
	}
	metric := map[int]int64{}
	for _, e := range events {
		if e.Type != obs.PhaseEnd {
			continue
		}
		for _, l := range e.Load {
			metric[l.Worker] += l.BusyNS
		}
	}
	span := tf.chunkBusyByWorker()
	// The slack floor: timestamps quantize to microseconds in the trace
	// file, so totals below ~1ms per worker compare loosely.
	const floorNS = 2e6
	workers := map[int]bool{}
	for w := range metric {
		workers[w] = true
	}
	for w := range span {
		workers[w] = true
	}
	for w := range workers {
		m, s := metric[w], span[w]
		diff := m - s
		if diff < 0 {
			diff = -diff
		}
		limit := int64(tol * float64(m))
		if limit < floorNS {
			limit = floorNS
		}
		if diff > limit {
			return fmt.Errorf("export: worker %d busy time disagrees: spans %dns vs metrics %dns (tolerance %.0f%%)",
				w, s, m, tol*100)
		}
	}
	return nil
}
