// Package machine models a large NUMA shared-memory system in the mold
// of the paper's testbed — the SGI Altix UV "Blacklight" (blades of 16
// Nehalem-EX cores, 128 GB local memory per blade, NUMAlink5
// interconnect) — and replays instrumented mining runs (the modelled
// halves of a sched.Record) on it with a deterministic discrete-event
// simulation.
//
// Why simulate: the paper's experiments sweep 16–256 hardware threads;
// the repository's benchmark host exposes two CPUs to the runtime, so
// wall-clock speedup at those scales is physically unobservable. The
// miners' parallel structure is fully recorded per task (bytes of
// combine work, bytes read from shared parent payloads, bytes
// allocated, loop schedule), which is everything the paper's
// scalability argument depends on; the machine model adds only the
// geometry (blades, interconnect, caches).
//
// Cost model, per phase of a trace:
//
//   - A task's compute time is Overhead + Work/ComputeBPS.
//   - Remote penalty: with B = ceil(T/CoresPerBlade) blades, a read of
//     shared parent data lands on a remote blade with probability
//     f = (B−1)/B. Whether it actually crosses the interconnect depends
//     on whether the task's parent working set stays cache-resident: the
//     miss ratio follows a Hill-type capacity curve (see missRatio).
//     Small working sets (diffset levels, Eclat classes) are fetched
//     once and hit thereafter; working sets far beyond capacity
//     (tidset/bitvector candidate levels) miss on every combine. Missed
//     bytes cost RemoteFactor× the local rate.
//   - The iteration→worker assignment replays the same sched.Chunker the
//     real implementation uses (static / dynamic / guided), so load
//     imbalance is simulated faithfully: a dynamic worker grabs the next
//     chunk when its clock is earliest, exactly like the OpenMP runtime.
//   - Two floors bound each phase: the machine-wide interconnect
//     bisection (total missed remote bytes / BisectionBPS), and the
//     phase's serial bookkeeping (Serial/ComputeBPS) which runs on one
//     core before the loop.
//
// The model is calibrated for shape, not absolute seconds: who scales,
// where the knee falls, and by roughly what factor — the claims of the
// paper's §V.
package machine

import (
	"container/heap"
	"fmt"

	"repro/internal/sched"
)

// Config is the simulated machine geometry.
type Config struct {
	// CoresPerBlade is the thread count that shares one local memory
	// (Blacklight: 16).
	CoresPerBlade int
	// ComputeBPS is the per-core set-combine processing rate in bytes/s.
	ComputeBPS float64
	// TaskOverheadSec is the fixed per-iteration cost (scheduling, trie
	// bookkeeping, allocator fast path).
	TaskOverheadSec float64
	// RemoteFactor multiplies the per-byte cost of interconnect-crossing
	// reads relative to local ones.
	RemoteFactor float64
	// CacheBytes is the effective per-blade capacity for hot shared
	// data; parent pools beyond it miss to the interconnect.
	CacheBytes float64
	// BisectionBPS is the machine-wide interconnect bandwidth available
	// to one job, a fixed resource that does not grow with blade count.
	BisectionBPS float64
}

// Blacklight returns the default configuration used by all experiments:
// geometry from the paper's §V, rates calibrated to the class of
// hardware (2.27 GHz Nehalem-EX, NUMAlink5).
func Blacklight() Config {
	return Config{
		CoresPerBlade:   16,
		ComputeBPS:      1e9,
		TaskOverheadSec: 2e-7,
		RemoteFactor:    4,
		CacheBytes:      4.5 * (1 << 20),
		BisectionBPS:    8e9,
	}
}

// WithHyperthreading returns the configuration with two hardware
// threads per core enabled: twice the threads share each blade, and each
// thread gets half a core's throughput scaled by smtGain (the modest SMT
// benefit two contexts extract from one memory-bound pipeline; ~1.0–1.1
// for streaming set kernels). The paper tried hyperthreading and
// found "it does not improve our program performance" — ablation A8
// reproduces that by comparing T threads on the base machine against 2T
// threads on this one.
func (c Config) WithHyperthreading(smtGain float64) Config {
	if smtGain <= 0 {
		smtGain = 1
	}
	c.CoresPerBlade *= 2
	c.ComputeBPS *= smtGain / 2
	return c
}

// RunTime is the simulated outcome of one run at a thread count.
type RunTime struct {
	Threads int
	// Seconds is the simulated wall-clock of the whole run.
	Seconds float64
	// RemoteBytes is the total traffic that crossed the interconnect.
	RemoteBytes float64
	// BandwidthBound reports whether any phase was limited by the
	// bisection floor rather than its workers.
	BandwidthBound bool
}

// Simulate replays a recorded trace on cfg with the given thread count:
// every loop with a modelled half, in order. Loops with only a measured
// half are not replayed.
func Simulate(trace *sched.Record, threads int, cfg Config) RunTime {
	if threads < 1 {
		threads = 1
	}
	out := RunTime{Threads: threads}
	if trace == nil {
		return out
	}
	for _, l := range trace.Loops {
		if l.Model == nil {
			continue
		}
		pt := simulatePhase(l.Model, l.Schedule, threads, cfg)
		out.Seconds += pt.seconds
		out.RemoteBytes += pt.remoteBytes
		out.BandwidthBound = out.BandwidthBound || pt.bandwidthBound
	}
	return out
}

// Speedup simulates the trace at every requested thread count and
// returns times plus speedups relative to the 1-thread simulation, the
// paper's figures' y-axis.
func Speedup(trace *sched.Record, threadCounts []int, cfg Config) ([]RunTime, []float64) {
	base := Simulate(trace, 1, cfg)
	times := make([]RunTime, len(threadCounts))
	speedups := make([]float64, len(threadCounts))
	for i, t := range threadCounts {
		times[i] = Simulate(trace, t, cfg)
		if times[i].Seconds > 0 {
			speedups[i] = base.Seconds / times[i].Seconds
		}
	}
	return times, speedups
}

type phaseTime struct {
	seconds        float64
	remoteBytes    float64
	bandwidthBound bool
}

// missRatio maps a task's parent working set U against cache capacity C
// with a Hill-type threshold curve, U³/(U³+C³): working sets well under
// capacity stay essentially resident (miss → 0), working sets well past
// it miss on essentially every access (miss → 1), with the knee at C.
// Caching is a capacity cliff, not a linear blend — a sharp curve is
// what lets a 3× footprint difference between representations produce
// the order-of-magnitude scalability split the paper reports.
func missRatio(u, c float64) float64 {
	if u <= 0 {
		return 0
	}
	u3 := u * u * u
	c3 := c * c * c
	return u3 / (u3 + c3)
}

func simulatePhase(p *sched.Model, s sched.Schedule, threads int, cfg Config) phaseTime {
	n := p.Tasks()
	serial := float64(p.Serial) / cfg.ComputeBPS
	if n == 0 {
		return phaseTime{seconds: serial}
	}
	blades := (threads + cfg.CoresPerBlade - 1) / cfg.CoresPerBlade
	remoteFrac := float64(blades-1) / float64(blades)
	missRatio := missRatio(float64(p.UniqueParent), cfg.CacheBytes)
	if !p.Shared {
		remoteFrac = 0
	}

	// Per-task simulated durations and total missed traffic.
	durations := make([]float64, n)
	var missedBytes float64
	for i := 0; i < n; i++ {
		miss := float64(p.Remote[i]) * remoteFrac * missRatio
		missedBytes += miss
		durations[i] = cfg.TaskOverheadSec +
			float64(p.Work[i])/cfg.ComputeBPS +
			miss*(cfg.RemoteFactor-1)/cfg.ComputeBPS
	}

	span := runSchedule(durations, threads, s)
	floor := missedBytes / cfg.BisectionBPS
	pt := phaseTime{remoteBytes: missedBytes}
	if floor > span {
		pt.seconds = floor + serial
		pt.bandwidthBound = true
	} else {
		pt.seconds = span + serial
	}
	return pt
}

// workerHeap orders simulated workers by their next-free time, breaking
// ties by id for determinism.
type workerHeap []workerClock

type workerClock struct {
	id   int
	free float64
}

func (h workerHeap) Len() int { return len(h) }
func (h workerHeap) Less(i, j int) bool {
	if h[i].free != h[j].free {
		return h[i].free < h[j].free
	}
	return h[i].id < h[j].id
}
func (h workerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *workerHeap) Push(x any)   { *h = append(*h, x.(workerClock)) }
func (h *workerHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// runSchedule replays the loop's chunk hand-out on simulated worker
// clocks and returns the makespan. It uses the very same Chunker the
// real Team uses, so schedule semantics cannot drift between execution
// and simulation.
func runSchedule(durations []float64, threads int, s sched.Schedule) float64 {
	n := len(durations)
	p := threads
	if p > n {
		p = n
	}
	if p == 1 {
		total := 0.0
		for _, d := range durations {
			total += d
		}
		return total
	}
	ch := sched.NewChunker(n, p, s)
	h := make(workerHeap, p)
	for w := 0; w < p; w++ {
		h[w] = workerClock{id: w}
	}
	heap.Init(&h)
	makespan := 0.0
	for {
		wc := heap.Pop(&h).(workerClock)
		lo, hi, ok := ch.Next(wc.id)
		if !ok {
			// This worker is done; if every other worker is also
			// drained the loop ends when the heap can make no progress.
			if wc.free > makespan {
				makespan = wc.free
			}
			if h.Len() == 0 {
				return makespan
			}
			continue
		}
		for i := lo; i < hi; i++ {
			wc.free += durations[i]
		}
		heap.Push(&h, wc)
	}
}

// Describe formats the machine configuration for report headers.
func (c Config) Describe() string {
	return fmt.Sprintf("blades of %d cores, %.1f GB/s/core combine rate, remote×%.1f, %.0f MB blade cache, %.1f GB/s bisection",
		c.CoresPerBlade, c.ComputeBPS/1e9, c.RemoteFactor, c.CacheBytes/(1<<20), c.BisectionBPS/1e9)
}
