package sched

import (
	"sync/atomic"
	"testing"
	"time"
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

// TestMetricsCountersSumForCtx: with a Metrics attached, a completed
// ForCtx loop records exactly N tasks and the chunker's exact chunk
// count, summed across per-worker counters, for every policy.
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
			m := NewMetrics()
			team.SetMetrics(m)
			m.Label("loop-under-test")
			touched := make([]atomic.Int32, n)
			if err := team.ForCtx(nil, n, s, func(w, i int) {
				touched[i].Add(1)
			}); err != nil {
				t.Fatal(err)
			}
			for i := range touched {
				if c := touched[i].Load(); c != 1 {
					t.Fatalf("iteration %d executed %d times", i, c)
				}
			}
			ps := m.Last()
			if ps == nil {
				t.Fatal("no phase recorded")
			}
			if ps.Name != "loop-under-test" {
				t.Errorf("Name = %q, want loop-under-test", ps.Name)
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
			m := NewMetrics()
			team.SetMetrics(m)
			touched := make([]atomic.Int32, n)
			if err := team.ForWeightedCtx(nil, n, weights, s, func(w, i int) {
				touched[i].Add(1)
			}); err != nil {
				t.Fatal(err)
			}
			for i := range touched {
				if c := touched[i].Load(); c != 1 {
					t.Fatalf("iteration %d executed %d times", i, c)
				}
			}
			ps := m.Last()
			if ps == nil {
				t.Fatal("no phase recorded")
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
	team := NewTeam(8)
	m := NewMetrics()
	team.SetMetrics(m)
	if err := team.ForCtx(nil, 3, Schedule{Policy: Dynamic, Chunk: 1}, func(w, i int) {}); err != nil {
		t.Fatal(err)
	}
	ps := m.Last()
	if len(ps.Workers) != 3 {
		t.Errorf("Workers = %d, want clamp to 3", len(ps.Workers))
	}
	if ps.TotalTasks() != 3 {
		t.Errorf("TotalTasks = %d, want 3", ps.TotalTasks())
	}
}

// TestMetricsDrainExactlyOnce: Drain hands each finished loop out once,
// in order, so phase_end forwarding cannot duplicate.
func TestMetricsDrainExactlyOnce(t *testing.T) {
	team := NewTeam(2)
	m := NewMetrics()
	team.SetMetrics(m)
	m.Label("a")
	team.For(10, Schedule{Policy: Static}, func(w, i int) {})
	first := m.Drain()
	if len(first) != 1 || first[0].Name != "a" {
		t.Fatalf("first Drain = %v", first)
	}
	if again := m.Drain(); len(again) != 0 {
		t.Fatalf("second Drain returned %d phases", len(again))
	}
	m.Label("b")
	team.For(10, Schedule{Policy: Static}, func(w, i int) {})
	second := m.Drain()
	if len(second) != 1 || second[0].Name != "b" {
		t.Fatalf("Drain after second loop = %v", second)
	}
	if got := len(m.Phases()); got != 2 {
		t.Errorf("Phases = %d records, want 2 (Drain must not discard)", got)
	}
}

// TestMetricsUnlabeledLoops get sequential default names.
func TestMetricsUnlabeledLoops(t *testing.T) {
	team := NewTeam(2)
	m := NewMetrics()
	team.SetMetrics(m)
	team.For(4, Schedule{Policy: Static}, func(w, i int) {})
	team.For(4, Schedule{Policy: Static}, func(w, i int) {})
	ph := m.Phases()
	if ph[0].Name != "loop1" || ph[1].Name != "loop2" {
		t.Errorf("default names = %q, %q", ph[0].Name, ph[1].Name)
	}
}

// TestPhaseStatsImbalance: the figure of merit is max/mean busy time,
// 1.0 for an idle or perfectly balanced loop.
func TestPhaseStatsImbalance(t *testing.T) {
	ps := &PhaseStats{Workers: []WorkerStats{
		{Busy: 300 * time.Millisecond},
		{Busy: 100 * time.Millisecond},
	}}
	if got := ps.Imbalance(); got != 1.5 {
		t.Errorf("Imbalance = %v, want 1.5", got)
	}
	if got := (&PhaseStats{Workers: make([]WorkerStats, 4)}).Imbalance(); got != 1.0 {
		t.Errorf("idle Imbalance = %v, want 1.0", got)
	}
}

// TestNilMetricsSafe: every Metrics entry point is nil-safe, matching
// the nil-Observer contract.
func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	m.Label("x")
	if m.Phases() != nil || m.Last() != nil || m.Drain() != nil {
		t.Error("nil Metrics returned non-nil data")
	}
	team := NewTeam(2)
	team.SetMetrics(nil)
	team.For(10, Schedule{Policy: Static}, func(w, i int) {}) // must not panic
}
