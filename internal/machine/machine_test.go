package machine

import (
	"math"
	"testing"

	"repro/internal/sched"
)

// tracePhase builds a single-phase trace with uniform tasks.
func tracePhase(n int, work, remote, unique int64, shared bool, s sched.Schedule) *sched.Record {
	col := &sched.Record{}
	l := col.Open("test", s, n, shared)
	l.Model.UniqueParent = unique
	for i := 0; i < n; i++ {
		l.Add(i, work, remote, 0)
	}
	return col
}

func TestSimulateSerialBaseline(t *testing.T) {
	cfg := Blacklight()
	col := tracePhase(100, 1e6, 0, 0, true, sched.Schedule{Policy: sched.Static})
	rt := Simulate(col, 1, cfg)
	want := 100 * (1e6/cfg.ComputeBPS + cfg.TaskOverheadSec)
	if math.Abs(rt.Seconds-want) > 1e-9 {
		t.Errorf("serial time = %v, want %v", rt.Seconds, want)
	}
	if rt.RemoteBytes != 0 || rt.BandwidthBound {
		t.Error("serial run reported remote traffic")
	}
}

func TestPerfectScalingWithinOneBlade(t *testing.T) {
	// Below CoresPerBlade everything is local: uniform tasks must give
	// near-linear speedup regardless of the remote fields.
	cfg := Blacklight()
	col := tracePhase(1600, 1e6, 5e5, 1<<30, true, sched.Schedule{Policy: sched.Static})
	one := Simulate(col, 1, cfg)
	sixteen := Simulate(col, 16, cfg)
	got := one.Seconds / sixteen.Seconds
	if got < 15.5 || got > 16.01 {
		t.Errorf("speedup at 16 threads = %v, want ~16", got)
	}
	if sixteen.RemoteBytes != 0 {
		t.Errorf("one blade produced %v remote bytes", sixteen.RemoteBytes)
	}
}

func TestBigSharedPoolStopsScaling(t *testing.T) {
	// A huge shared parent pool (far beyond cache) with heavy per-task
	// remote reads must flatten beyond one blade — the Apriori
	// tidset/bitvector signature.
	cfg := Blacklight()
	col := tracePhase(100000, 1e4, 8e3, 1<<31, true, sched.Schedule{Policy: sched.Static})
	_, speedups := Speedup(col, []int{16, 32, 64, 128, 256}, cfg)
	if speedups[0] < 14 {
		t.Errorf("speedup at 16 = %v, want near-linear", speedups[0])
	}
	// Past one blade the curve must be essentially flat (within 2x of
	// the 16-thread point while the thread count grows 16x).
	if speedups[4] > speedups[0]*3 {
		t.Errorf("256-thread speedup %v did not flatten vs 16-thread %v", speedups[4], speedups[0])
	}
}

func TestSmallSharedPoolKeepsScaling(t *testing.T) {
	// A tiny parent pool stays cache-resident: the same task structure
	// must keep scaling to 256 threads — the diffset signature.
	cfg := Blacklight()
	col := tracePhase(100000, 1e4, 8e3, 1<<18, true, sched.Schedule{Policy: sched.Static})
	_, speedups := Speedup(col, []int{16, 256}, cfg)
	if speedups[1] < speedups[0]*8 {
		t.Errorf("small-pool speedup did not grow: 16→%v, 256→%v", speedups[0], speedups[1])
	}
	if speedups[1] < 150 {
		t.Errorf("256-thread speedup = %v, want > 150 for cache-resident pool", speedups[1])
	}
}

func TestPrivateDataNeverPaysRemote(t *testing.T) {
	cfg := Blacklight()
	shared := tracePhase(10000, 1e4, 1e4, 1<<31, true, sched.Schedule{Policy: sched.Dynamic, Chunk: 1})
	private := tracePhase(10000, 1e4, 1e4, 1<<31, false, sched.Schedule{Policy: sched.Dynamic, Chunk: 1})
	st := Simulate(shared, 256, cfg)
	pt := Simulate(private, 256, cfg)
	if pt.RemoteBytes != 0 {
		t.Errorf("private phase produced remote traffic %v", pt.RemoteBytes)
	}
	if st.Seconds <= pt.Seconds {
		t.Error("shared phase not slower than private at 256 threads")
	}
}

func TestLoadImbalanceDynamicBeatsStaticChunked(t *testing.T) {
	// One giant task at the front, many small ones: static block
	// assignment lands the giant plus a full block on worker 0, while
	// dynamic chunk-1 gives the giant worker nothing else.
	cfg := Blacklight()
	build := func(s sched.Schedule) *sched.Record {
		col := &sched.Record{}
		p := col.Open("imbalanced", s, 64, false)
		p.Add(0, 64e6, 0, 0)
		for i := 1; i < 64; i++ {
			p.Add(i, 1e6, 0, 0)
		}
		return col
	}
	stat := Simulate(build(sched.Schedule{Policy: sched.Static}), 4, cfg)
	dyn := Simulate(build(sched.Schedule{Policy: sched.Dynamic, Chunk: 1}), 4, cfg)
	if dyn.Seconds >= stat.Seconds {
		t.Errorf("dynamic (%v) not faster than static (%v) on skewed tasks", dyn.Seconds, stat.Seconds)
	}
	// Dynamic's makespan is bounded below by the giant task.
	if dyn.Seconds < 64e6/cfg.ComputeBPS {
		t.Errorf("dynamic makespan %v below the giant task's own duration", dyn.Seconds)
	}
}

func TestSerialSectionBoundsSpeedup(t *testing.T) {
	cfg := Blacklight()
	col := tracePhase(1000, 1e6, 0, 0, true, sched.Schedule{Policy: sched.Static})
	col.Loops[0].AddSerial(500e6) // serial half as big as the parallel work
	one := Simulate(col, 1, cfg)
	many := Simulate(col, 256, cfg)
	// Amdahl: speedup <= (1 + 0.5)/0.5 = 3.
	if got := one.Seconds / many.Seconds; got > 3.01 {
		t.Errorf("speedup %v exceeds Amdahl bound 3", got)
	}
}

func TestBandwidthBoundFlag(t *testing.T) {
	cfg := Blacklight()
	col := tracePhase(100000, 1e3, 1e5, 1<<33, true, sched.Schedule{Policy: sched.Static})
	rt := Simulate(col, 256, cfg)
	if !rt.BandwidthBound {
		t.Error("massively remote run not flagged bandwidth-bound")
	}
	if rt.RemoteBytes == 0 {
		t.Error("no remote bytes recorded")
	}
}

func TestThreadScalingInvariants(t *testing.T) {
	cfg := Blacklight()
	for _, s := range []sched.Schedule{
		{Policy: sched.Static}, {Policy: sched.Dynamic, Chunk: 1}, {Policy: sched.Guided},
	} {
		// Private data: no remote penalty, so more threads is never
		// slower.
		col := tracePhase(5000, 1e5, 3e4, 1<<26, false, s)
		prev := math.Inf(1)
		for _, threads := range []int{1, 2, 4, 16, 64, 256} {
			rt := Simulate(col, threads, cfg)
			if rt.Seconds > prev*1.0001 {
				t.Errorf("%v private: time grew from %v to %v at %d threads", s, prev, rt.Seconds, threads)
			}
			prev = rt.Seconds
		}
		// Shared data: crossing a blade boundary may degrade (remote
		// penalty — the paper's own observation for Apriori tidset),
		// but never by more than the full remote factor.
		shared := tracePhase(5000, 1e5, 3e4, 1<<26, true, s)
		base := Simulate(shared, 16, cfg).Seconds
		for _, threads := range []int{32, 64, 128, 256} {
			rt := Simulate(shared, threads, cfg)
			if rt.Seconds > base*cfg.RemoteFactor {
				t.Errorf("%v shared: %d-thread time %v exceeds remote-factor bound of the 16-thread time %v",
					s, threads, rt.Seconds, base)
			}
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	if rt := Simulate(&sched.Record{}, 64, Blacklight()); rt.Seconds != 0 {
		t.Errorf("empty trace took %v", rt.Seconds)
	}
	// A loop with only a measured half is not replayed.
	measured := &sched.Record{}
	sched.NewTeam(2).ForCtx(nil, measured.OpenMeasured("prune", sched.Schedule{}), 100,
		sched.Schedule{}, func(int, int) {})
	if rt := Simulate(measured, 64, Blacklight()); rt.Seconds != 0 || measured.Loops[0].Load == nil {
		t.Errorf("measured-only trace took %v", rt.Seconds)
	}
	if rt := Simulate(nil, 64, Blacklight()); rt.Seconds != 0 {
		t.Errorf("nil trace took %v", rt.Seconds)
	}
}

func TestSpeedupBaselineIsOne(t *testing.T) {
	col := tracePhase(100, 1e6, 0, 0, true, sched.Schedule{Policy: sched.Static})
	_, speedups := Speedup(col, []int{1}, Blacklight())
	if math.Abs(speedups[0]-1) > 1e-9 {
		t.Errorf("speedup at 1 thread = %v", speedups[0])
	}
}

func TestDescribe(t *testing.T) {
	if Blacklight().Describe() == "" {
		t.Error("empty description")
	}
}

// TestScheduleReplayMatchesRealExecution: the simulated makespan of a
// static schedule must equal the max of per-worker sums computed directly
// from the chunker — i.e. the DES agrees with first-principles math.
func TestScheduleReplayMatchesRealExecution(t *testing.T) {
	durations := make([]float64, 103)
	for i := range durations {
		durations[i] = float64(i%7+1) * 1e-3
	}
	s := sched.Schedule{Policy: sched.Static}
	got := runSchedule(durations, 4, s)
	// First-principles: static,0 gives contiguous blocks.
	ch := sched.NewChunker(103, 4, s)
	want := 0.0
	for w := 0; w < 4; w++ {
		sum := 0.0
		for {
			lo, hi, ok := ch.Next(w)
			if !ok {
				break
			}
			for i := lo; i < hi; i++ {
				sum += durations[i]
			}
		}
		if sum > want {
			want = sum
		}
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("replay makespan %v != direct computation %v", got, want)
	}
}

// TestHyperthreadingDoesNotHelp reproduces the paper's §V observation:
// doubling the thread count via SMT (threads share core throughput) does
// not improve a memory-bound mining run.
func TestHyperthreadingDoesNotHelp(t *testing.T) {
	base := Blacklight()
	ht := base.WithHyperthreading(1.05)
	if ht.CoresPerBlade != 2*base.CoresPerBlade {
		t.Fatalf("HT cores/blade = %d", ht.CoresPerBlade)
	}
	col := tracePhase(4096, 1e6, 3e5, 1<<23, true, sched.Schedule{Policy: sched.Static})
	noHT := Simulate(col, 256, base)
	shared := Simulate(col, 512, ht) // same 16 blades, 2x threads
	// A core running one busy thread keeps full throughput, so effective
	// HT time is the better of idling the siblings or sharing the cores.
	withHT := shared.Seconds
	if noHT.Seconds < withHT {
		withHT = noHT.Seconds
	}
	ratio := noHT.Seconds / withHT
	// "Does not improve": no more than a few percent either way.
	if ratio < 0.99 || ratio > 1.15 {
		t.Errorf("HT changed runtime by %vx (noHT=%v, HT=%v)", ratio, noHT.Seconds, withHT)
	}
}

func TestWithHyperthreadingValidatesGain(t *testing.T) {
	c := Blacklight().WithHyperthreading(0)
	if c.ComputeBPS != Blacklight().ComputeBPS/2 {
		t.Errorf("zero gain not clamped: %v", c.ComputeBPS)
	}
}

// TestSimulationIsDeterministic: identical traces and configurations must
// produce bit-identical simulated times, including under dynamic
// scheduling (the DES breaks clock ties by worker id).
func TestSimulationIsDeterministic(t *testing.T) {
	cfg := Blacklight()
	for _, s := range []sched.Schedule{
		{Policy: sched.Static}, {Policy: sched.Dynamic, Chunk: 1}, {Policy: sched.Guided},
	} {
		col := tracePhase(3000, 1e5, 4e4, 1<<24, true, s)
		for _, threads := range []int{7, 64, 256} {
			a := Simulate(col, threads, cfg)
			b := Simulate(col, threads, cfg)
			if a.Seconds != b.Seconds || a.RemoteBytes != b.RemoteBytes {
				t.Errorf("%v threads=%d: nondeterministic simulation", s, threads)
			}
		}
	}
}
