package sched

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// countChunks drives a fresh Chunker serially and returns the total
// chunk count it hands out. Chunk grant sizes depend only on the
// remaining-iteration state for every policy (static partitions are
// per-worker, dynamic grants are fixed-size, guided sizes are a pure
// function of the remaining count), so this matches what any concurrent
// execution claims in aggregate.
func countChunks(n, p int, s Schedule) int64 {
	ch := NewChunker(n, p, s)
	var total int64
	if s.Policy == Static {
		for w := 0; w < p; w++ {
			for {
				if _, _, ok := ch.Next(w); !ok {
					break
				}
				total++
			}
		}
		return total
	}
	for {
		if _, _, ok := ch.Next(0); !ok {
			break
		}
		total++
	}
	return total
}

// staticWorkerTasks returns each worker's iteration total under a
// static partition, which is deterministic per worker.
func staticWorkerTasks(n, p int, s Schedule) []int64 {
	ch := NewChunker(n, p, s)
	tasks := make([]int64, p)
	for w := 0; w < p; w++ {
		for {
			lo, hi, ok := ch.Next(w)
			if !ok {
				break
			}
			tasks[w] += int64(hi - lo)
		}
	}
	return tasks
}

// TestMetricsCountersSumForCtx: a completed ForCtx loop handed a loop
// record fills its measured half with exactly N tasks and the chunker's
// exact chunk count, summed across per-worker counters, for every
// policy.
func TestMetricsCountersSumForCtx(t *testing.T) {
	const n = 1000
	const workers = 4
	for _, s := range []Schedule{
		{Policy: Static},
		{Policy: Static, Chunk: 7},
		{Policy: Dynamic, Chunk: 1},
		{Policy: Dynamic, Chunk: 16},
		{Policy: Guided},
		{Policy: Guided, Chunk: 8},
	} {
		t.Run(s.String(), func(t *testing.T) {
			team := NewTeam(workers)
			loop := (&Record{}).Open("loop-under-test", s, n, false)
			touched := make([]atomic.Int32, n)
			if err := team.ForCtx(nil, loop, n, s, func(w, i int) {
				touched[i].Add(1)
			}); err != nil {
				t.Fatal(err)
			}
			for i := range touched {
				if c := touched[i].Load(); c != 1 {
					t.Fatalf("iteration %d executed %d times", i, c)
				}
			}
			ps := loop.Load
			if ps == nil {
				t.Fatal("no measured half recorded")
			}
			if ps.N != n {
				t.Errorf("N = %d, want %d", ps.N, n)
			}
			if len(ps.Workers) != workers {
				t.Errorf("Workers = %d, want %d", len(ps.Workers), workers)
			}
			if got := ps.TotalTasks(); got != n {
				t.Errorf("TotalTasks = %d, want %d", got, n)
			}
			if want := countChunks(n, workers, s); ps.TotalChunks() != want {
				t.Errorf("TotalChunks = %d, want %d", ps.TotalChunks(), want)
			}
			if ps.Imbalance() < 1 {
				t.Errorf("Imbalance = %v, want >= 1", ps.Imbalance())
			}
			if s.Policy == Static {
				want := staticWorkerTasks(n, workers, s)
				for w, ws := range ps.Workers {
					if ws.Tasks != want[w] {
						t.Errorf("worker %d Tasks = %d, want %d", w, ws.Tasks, want[w])
					}
				}
			}
		})
	}
}

// TestMetricsCountersSumForWeightedCtx: the weighted loop (Apriori's
// counting loop) accounts exactly N tasks and the exact chunk count,
// whether static cuts its blocks by weight or another schedule ignores
// the weights. Under weighted static each worker's tasks are its
// weight-cut block.
func TestMetricsCountersSumForWeightedCtx(t *testing.T) {
	const n = 777
	const workers = 3
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = int64((i%13)*(i%13)) + 1
	}
	for _, s := range []Schedule{
		{Policy: Static},
		{Policy: Dynamic, Chunk: 10},
		{Policy: Guided, Chunk: 4},
	} {
		t.Run(s.String(), func(t *testing.T) {
			team := NewTeam(workers)
			loop := NewMeasuredRecord().OpenMeasured("weighted", s)
			touched := make([]atomic.Int32, n)
			if err := team.ForWeightedCtx(nil, loop, n, weights, s, func(w, i int) {
				touched[i].Add(1)
			}); err != nil {
				t.Fatal(err)
			}
			for i := range touched {
				if c := touched[i].Load(); c != 1 {
					t.Fatalf("iteration %d executed %d times", i, c)
				}
			}
			ps := loop.Load
			if ps == nil {
				t.Fatal("no measured half recorded")
			}
			if got := ps.TotalTasks(); got != n {
				t.Errorf("TotalTasks = %d, want %d", got, n)
			}
			wantChunks := countChunks(n, workers, s)
			if s.Policy == Static {
				blocks := newWeightedStaticChunker(n, workers, weights)
				wantChunks = 0
				for w, ws := range ps.Workers {
					var want int64
					for _, c := range blocks.chunks[w] {
						want += int64(c[1] - c[0])
					}
					wantChunks += int64(len(blocks.chunks[w]))
					if ws.Tasks != want {
						t.Errorf("worker %d Tasks = %d, want its weighted block %d", w, ws.Tasks, want)
					}
				}
			}
			if ps.TotalChunks() != wantChunks {
				t.Errorf("TotalChunks = %d, want %d", ps.TotalChunks(), wantChunks)
			}
		})
	}
}

// TestMetricsSerialTeam: a one-worker team records everything on worker
// 0, and a team clamped by a tiny loop sizes Workers to the clamp.
func TestMetricsSerialTeam(t *testing.T) {
	s := Schedule{Policy: Dynamic, Chunk: 1}
	loop := NewMeasuredRecord().OpenMeasured("tiny", s)
	if err := NewTeam(8).ForCtx(nil, loop, 3, s, func(w, i int) {}); err != nil {
		t.Fatal(err)
	}
	ps := loop.Load
	if len(ps.Workers) != 3 {
		t.Errorf("Workers = %d, want clamp to 3", len(ps.Workers))
	}
	if ps.TotalTasks() != 3 {
		t.Errorf("TotalTasks = %d, want 3", ps.TotalTasks())
	}
	one := NewMeasuredRecord().OpenMeasured("serial", s)
	if err := NewTeam(1).ForCtx(nil, one, 5, s, func(w, i int) {}); err != nil {
		t.Fatal(err)
	}
	if len(one.Load.Workers) != 1 || one.Load.Workers[0].Tasks != 5 {
		t.Errorf("serial team load = %+v", one.Load.Workers)
	}
}

// TestMetricsDrainExactlyOnce: the record forwards each team loop to its
// observer as exactly one phase_end, in order, as the loop closes, built
// from the loop's measured half — so phase_end cannot duplicate or
// drift from the record.
func TestMetricsDrainExactlyOnce(t *testing.T) {
	team := NewTeam(2)
	rec := NewMeasuredRecord()
	var events obs.Recorder
	rec.Observe(&events, nil)
	s := Schedule{Policy: Static}
	for _, name := range []string{"a", "b"} {
		l := rec.OpenMeasured(name, s)
		if err := team.ForCtx(nil, l, 10, s, func(w, i int) {}); err != nil {
			t.Fatal(err)
		}
		if got := len(events.Events()); got != len(rec.Loops) {
			t.Fatalf("after loop %q: %d phase_end events, want %d", name, got, len(rec.Loops))
		}
	}
	for i, e := range events.Events() {
		l := rec.Loops[i]
		if e.Type != obs.PhaseEnd || e.Phase != l.Name || e.Schedule != s.String() ||
			e.Candidates != l.Load.N || e.ElapsedNS != int64(l.Load.Wall) {
			t.Errorf("event %d = %+v, loop %q %+v", i, e, l.Name, l.Load)
		}
		var tasks int64
		for w, ld := range e.Load {
			if ld.Worker != w || ld.Tasks != l.Load.Workers[w].Tasks {
				t.Errorf("event %d worker %d load %+v", i, w, ld)
			}
			tasks += ld.Tasks
		}
		if tasks != 10 {
			t.Errorf("event %d tasks sum %d, want 10", i, tasks)
		}
	}
}

// TestMetricsUnlabeledLoops: a team loop handed no loop record is not
// recorded at all — the record holds only the loops its caller opened,
// under the names the caller gave, and a loop no team ran (or one of
// zero iterations) carries no measured half.
func TestMetricsUnlabeledLoops(t *testing.T) {
	team := NewTeam(2)
	rec := NewMeasuredRecord()
	var events obs.Recorder
	rec.Observe(&events, nil)
	s := Schedule{Policy: Static}
	team.For(4, s, func(w, i int) {})
	named := rec.OpenMeasured("named", s)
	if err := team.ForCtx(nil, named, 4, s, func(w, i int) {}); err != nil {
		t.Fatal(err)
	}
	team.For(4, s, func(w, i int) {})
	idle := rec.OpenMeasured("idle", s)
	empty := rec.OpenMeasured("empty", s)
	if err := team.ForCtx(nil, empty, 0, s, func(w, i int) {}); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, l := range rec.Loops {
		names = append(names, l.Name)
	}
	if !slices.Equal(names, []string{"named", "idle", "empty"}) {
		t.Errorf("loops = %q", names)
	}
	if named.Load == nil || idle.Load != nil || empty.Load != nil {
		t.Errorf("measured halves: named %v, idle %v, empty %v", named.Load, idle.Load, empty.Load)
	}
	if ev := events.Events(); len(ev) != 1 || ev[0].Phase != "named" {
		t.Errorf("phase_end events = %+v, want one for \"named\"", ev)
	}
}

// recordingTracer collects chunk spans per phase.
type recordingTracer struct {
	mu    sync.Mutex
	tasks map[string]int64
	busy  map[string]time.Duration
}

func (r *recordingTracer) ChunkSpan(phase string, w, lo, hi int, tasks int64, start time.Time, dur time.Duration) {
	r.mu.Lock()
	r.tasks[phase] += tasks
	r.busy[phase] += dur
	r.mu.Unlock()
}

// TestChunkTracerMatchesLoad: the chunk hook hangs off the record and
// sees every chunk under the loop's name, with the same tasks and busy
// time the measured half accounts.
func TestChunkTracerMatchesLoad(t *testing.T) {
	tr := &recordingTracer{tasks: map[string]int64{}, busy: map[string]time.Duration{}}
	rec := NewMeasuredRecord()
	rec.Observe(nil, tr)
	s := Schedule{Policy: Dynamic, Chunk: 3}
	l := rec.OpenMeasured("traced", s)
	if err := NewTeam(3).ForCtx(nil, l, 100, s, func(w, i int) {}); err != nil {
		t.Fatal(err)
	}
	if tr.tasks["traced"] != 100 || len(tr.tasks) != 1 {
		t.Errorf("traced tasks = %v, want 100 under \"traced\"", tr.tasks)
	}
	var busy time.Duration
	for _, w := range l.Load.Workers {
		busy += w.Busy
	}
	if tr.busy["traced"] != busy {
		t.Errorf("span busy %v != load busy %v", tr.busy["traced"], busy)
	}
}

// TestPhaseStatsImbalance: the figure of merit is max/mean busy time,
// 1.0 for an idle or perfectly balanced loop.
func TestPhaseStatsImbalance(t *testing.T) {
	ps := &Load{Workers: []WorkerStats{
		{Busy: 300 * time.Millisecond},
		{Busy: 100 * time.Millisecond},
	}}
	if got := ps.Imbalance(); got != 1.5 {
		t.Errorf("Imbalance = %v, want 1.5", got)
	}
	if got := (&Load{Workers: make([]WorkerStats, 4)}).Imbalance(); got != 1.0 {
		t.Errorf("idle Imbalance = %v, want 1.0", got)
	}
}

// TestNilMetricsSafe: every entry point of the record is nil-safe — a
// nil record opens nil loops and a loop driver runs them — matching the
// nil-Observer contract of an unobserved, untraced run.
func TestNilMetricsSafe(t *testing.T) {
	var rec *Record
	rec.Observe(nil, nil)
	l := rec.Open("x", Schedule{}, 10, true)
	if l != nil || rec.OpenMeasured("y", Schedule{}) != nil {
		t.Fatal("nil record opened a loop")
	}
	if err := NewTeam(2).ForCtx(nil, l, 10, Schedule{Policy: Static}, func(w, i int) {}); err != nil {
		t.Fatal(err)
	}
}

// TestNilCollectorIsSafe: a nil loop and a nil model ignore charges and
// report nothing, a nil record has zero totals, and a loop without a
// modelled half ignores charges too.
func TestNilCollectorIsSafe(t *testing.T) {
	var rec *Record
	l := rec.Open("x", Schedule{}, 10, true)
	if l != nil {
		t.Fatal("nil record opened a loop")
	}
	l.Add(3, 1, 2, 3)
	l.AddSerial(5)
	if l.Modelled() {
		t.Error("nil loop is modelled")
	}
	if rec.TotalWork() != 0 || rec.TotalRemote() != 0 || rec.TotalAlloc() != 0 {
		t.Error("nil record has totals")
	}
	var m *Model
	if m.Tasks() != 0 {
		t.Error("nil model has tasks")
	}
	// A loop without a modelled half ignores charges.
	ml := NewMeasuredRecord().Open("measured", Schedule{}, 10, true)
	ml.Add(0, 1, 1, 1)
	ml.AddSerial(1)
	if ml.Modelled() || ml.Model != nil {
		t.Error("measured-only record kept a modelled half")
	}
}

// TestPhaseAccumulation: per-task costs accumulate on their task, serial
// bytes on the loop, and the record's work total includes serial bytes.
func TestPhaseAccumulation(t *testing.T) {
	rec := &Record{}
	l := rec.Open("gen2", Schedule{Policy: Static}, 3, true)
	l.Add(0, 10, 4, 2)
	l.Add(1, 20, 8, 4)
	l.Add(0, 5, 1, 1) // same task twice accumulates
	l.AddSerial(7)
	p := l.Model
	if p.Tasks() != 3 || !p.Shared {
		t.Errorf("model tasks = %d shared = %v", p.Tasks(), p.Shared)
	}
	if p.TotalWork() != 35 || p.TotalRemote() != 13 || p.TotalAlloc() != 7 {
		t.Errorf("totals = %d/%d/%d", p.TotalWork(), p.TotalRemote(), p.TotalAlloc())
	}
	if p.Serial != 7 {
		t.Errorf("serial = %d", p.Serial)
	}
	if p.Work[0] != 15 || p.Work[2] != 0 {
		t.Errorf("per-task work = %v", p.Work)
	}
	if rec.TotalWork() != 42 { // includes serial
		t.Errorf("record total = %d", rec.TotalWork())
	}
}

// TestConcurrentAdd: distinct workers charging the same tasks lose no
// bytes.
func TestConcurrentAdd(t *testing.T) {
	l := (&Record{}).Open("par", Schedule{}, 100, false)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Add(i, 1, 1, 1)
			}
		}()
	}
	wg.Wait()
	if l.Model.TotalWork() != 800 {
		t.Errorf("concurrent total = %d", l.Model.TotalWork())
	}
}

// TestMultiplePhases: the record's totals sum every modelled loop and
// skip loops with only a measured half.
func TestMultiplePhases(t *testing.T) {
	rec := &Record{}
	a := rec.Open("a", Schedule{}, 1, true)
	b := rec.Open("b", Schedule{}, 1, false)
	rec.OpenMeasured("c", Schedule{})
	a.Add(0, 5, 2, 1)
	b.Add(0, 7, 3, 2)
	if len(rec.Loops) != 3 {
		t.Fatalf("loops = %d", len(rec.Loops))
	}
	if rec.TotalWork() != 12 || rec.TotalRemote() != 5 || rec.TotalAlloc() != 3 {
		t.Errorf("totals = %d/%d/%d", rec.TotalWork(), rec.TotalRemote(), rec.TotalAlloc())
	}
}
