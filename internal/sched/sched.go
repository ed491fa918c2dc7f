// Package sched provides an OpenMP-style parallel-for over goroutine
// worker teams, with the three loop schedules the paper's implementation
// uses: static (Apriori's support-counting loop, §III), dynamic with a
// small chunk (Eclat's outer class loop, §IV), and guided.
//
// The chunk hand-out logic lives in a Chunker so that the NUMA machine
// simulator (package machine) can replay exactly the same iteration→worker
// assignment policy inside its discrete-event loop: the real execution and
// the simulated one share a single source of truth for scheduling
// semantics.
package sched

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runctl"
)

// Policy names an OpenMP loop schedule.
type Policy int

const (
	// Static splits the iteration space into equal contiguous blocks,
	// one per worker (chunk == 0), or deals fixed-size chunks round-robin
	// (chunk > 0). Assignment is decided entirely up front.
	Static Policy = iota
	// Dynamic deals fixed-size chunks (default 1) to workers as they
	// become idle, from a shared counter.
	Dynamic
	// Guided deals shrinking chunks: each hand-out takes
	// ceil(remaining/workers) iterations, bounded below by the chunk
	// size (default 1).
	Guided
)

func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps a schedule name to its Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "static":
		return Static, nil
	case "dynamic":
		return Dynamic, nil
	case "guided":
		return Guided, nil
	}
	return 0, fmt.Errorf("sched: unknown policy %q (want static, dynamic or guided)", s)
}

// Schedule pairs a policy with its chunk size. Chunk 0 means the policy's
// default (whole blocks for static, 1 for dynamic and guided).
type Schedule struct {
	Policy Policy
	Chunk  int
}

func (s Schedule) String() string {
	if s.Chunk > 0 {
		return fmt.Sprintf("%v,%d", s.Policy, s.Chunk)
	}
	return s.Policy.String()
}

// Chunker deals out half-open iteration ranges [lo, hi) of a loop of n
// iterations to workers. ok=false means the worker is done. Implementations
// are safe for concurrent use by the team's workers.
type Chunker interface {
	Next(worker int) (lo, hi int, ok bool)
}

// NewChunker builds the Chunker for a loop of n iterations run by p
// workers under s. It panics on n < 0 or p < 1, which indicate caller
// bugs, not runtime conditions.
func NewChunker(n, p int, s Schedule) Chunker {
	if n < 0 {
		panic("sched: negative iteration count")
	}
	if p < 1 {
		panic("sched: team needs at least one worker")
	}
	switch s.Policy {
	case Static:
		return newStaticChunker(n, p, s.Chunk)
	case Dynamic:
		c := s.Chunk
		if c < 1 {
			c = 1
		}
		return &dynamicChunker{n: n, chunk: c}
	case Guided:
		c := s.Chunk
		if c < 1 {
			c = 1
		}
		return &guidedChunker{n: n, p: p, minChunk: c}
	}
	panic(fmt.Sprintf("sched: unknown policy %v", s.Policy))
}

// staticChunker precomputes each worker's chunk list.
type staticChunker struct {
	chunks [][][2]int // per worker: list of [lo,hi)
	pos    []int64    // per worker cursor (atomic, in case of misuse)
}

func newStaticChunker(n, p, chunk int) *staticChunker {
	c := &staticChunker{chunks: make([][][2]int, p), pos: make([]int64, p)}
	if n == 0 {
		return c
	}
	if chunk < 1 {
		// Contiguous near-equal blocks, like OpenMP schedule(static).
		base, rem := n/p, n%p
		lo := 0
		for w := 0; w < p; w++ {
			size := base
			if w < rem {
				size++
			}
			if size > 0 {
				c.chunks[w] = append(c.chunks[w], [2]int{lo, lo + size})
			}
			lo += size
		}
		return c
	}
	// Fixed chunks dealt round-robin, like schedule(static, chunk).
	w := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		c.chunks[w] = append(c.chunks[w], [2]int{lo, hi})
		w = (w + 1) % p
	}
	return c
}

func (c *staticChunker) Next(worker int) (int, int, bool) {
	i := atomic.AddInt64(&c.pos[worker], 1) - 1
	lst := c.chunks[worker]
	if int(i) >= len(lst) {
		return 0, 0, false
	}
	ch := lst[i]
	return ch[0], ch[1], true
}

// newWeightedStaticChunker partitions [0, n) into p contiguous blocks
// of near-equal cumulative weight: worker w's block ends where the
// running weight first reaches total·(w+1)/p. This is the weighted
// analogue of schedule(static): assignment is still decided entirely
// up front and iterations stay contiguous, but the cut points follow
// estimated cost instead of iteration count. All-zero (or negative)
// totals degrade to the equal split.
func newWeightedStaticChunker(n, p int, weights []int64) *staticChunker {
	var total int64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return newStaticChunker(n, p, 0)
	}
	c := &staticChunker{chunks: make([][][2]int, p), pos: make([]int64, p)}
	lo := 0
	var acc int64
	for w := 0; w < p; w++ {
		hi := lo
		if w == p-1 {
			hi = n
		} else {
			target := total * int64(w+1) / int64(p)
			for hi < n && acc < target {
				acc += weights[hi]
				hi++
			}
		}
		if hi > lo {
			c.chunks[w] = append(c.chunks[w], [2]int{lo, hi})
		}
		lo = hi
	}
	return c
}

// dynamicChunker deals fixed chunks from a shared atomic counter.
type dynamicChunker struct {
	next  int64
	n     int
	chunk int
}

func (c *dynamicChunker) Next(int) (int, int, bool) {
	lo := int(atomic.AddInt64(&c.next, int64(c.chunk))) - c.chunk
	if lo >= c.n {
		return 0, 0, false
	}
	hi := lo + c.chunk
	if hi > c.n {
		hi = c.n
	}
	return lo, hi, true
}

// guidedChunker deals shrinking chunks under a mutex (the hand-out is
// rare compared to the work inside a chunk).
type guidedChunker struct {
	mu       sync.Mutex
	next     int
	n        int
	p        int
	minChunk int
}

func (c *guidedChunker) Next(int) (int, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	remaining := c.n - c.next
	if remaining <= 0 {
		return 0, 0, false
	}
	size := (remaining + c.p - 1) / c.p
	if size < c.minChunk {
		size = c.minChunk
	}
	if size > remaining {
		size = remaining
	}
	lo := c.next
	c.next += size
	return lo, lo + size, true
}

// Team is a reusable group of workers, the analogue of an OpenMP thread
// team. The zero value is not usable; construct with NewTeam.
type Team struct {
	workers int
}

// NewTeam returns a team of n workers (n >= 1; n is clamped to 1
// otherwise). The paper's experiments vary n from 1 to 256.
func NewTeam(n int) *Team {
	if n < 1 {
		n = 1
	}
	return &Team{workers: n}
}

// Workers returns the team size.
func (t *Team) Workers() int { return t.workers }

// cancelStride bounds how many iterations a worker runs between stop
// checks inside one chunk, so a cancelled run unwinds promptly even
// under schedule(static, 0), whose chunks span 1/p of the whole loop.
// The check is one atomic load; at this stride it is noise next to the
// set-intersection work of a single iteration.
const cancelStride = 256

// loopState is the per-loop shared unwinding state: the run's Control
// (may be nil) plus a loop-local latch for recovered panics, so panic
// containment works even for loops without run control. load, when
// non-nil, accumulates the loop record's measured half.
type loopState struct {
	rc       *runctl.Control
	load     *loadRec
	panicErr atomic.Pointer[runctl.WorkerPanicError]
}

// stopped is the worker fast path: one or two atomic loads.
func (ls *loopState) stopped() bool {
	return ls.panicErr.Load() != nil || ls.rc.Stopped()
}

// recover converts a body panic into a WorkerPanicError, latches it, and
// stops the run so sibling workers drain at their next check.
func (ls *loopState) recover(w int) {
	if r := recover(); r != nil {
		perr := &runctl.WorkerPanicError{Value: r, Worker: w, Stack: debug.Stack()}
		ls.panicErr.CompareAndSwap(nil, perr)
		ls.rc.Stop(perr)
	}
}

// err returns the loop's outcome: a contained panic wins over a budget
// or cancellation stop, which wins over success.
func (ls *loopState) err() error {
	if perr := ls.panicErr.Load(); perr != nil {
		return perr
	}
	return ls.rc.Cause()
}

// runChunk executes chunk [lo, hi) for worker w, returning the number of
// iterations executed and whether the chunk ran to completion (false
// when a stop check fired mid-chunk).
func (ls *loopState) runChunk(w, lo, hi int, body func(worker, i int)) (done int, completed bool) {
	for lo < hi {
		end := lo + cancelStride
		if end > hi {
			end = hi
		}
		for i := lo; i < end; i++ {
			body(w, i)
		}
		done += end - lo
		lo = end
		if lo < hi && ls.stopped() {
			return done, false
		}
	}
	return done, true
}

// runWorker drains chunks for worker w until the chunker is empty or the
// loop stops. Stop checks run at every chunk boundary and every
// cancelStride iterations within a chunk; the fault-injection hook (see
// fault.go) fires at each chunk boundary. When the loop is recorded,
// each chunk's busy time and iteration count are accounted to the
// worker (a chunk ended by a contained panic loses its accounting).
func (ls *loopState) runWorker(w int, ch Chunker, body func(worker, i int)) {
	defer ls.recover(w)
	for {
		if ls.stopped() {
			return
		}
		lo, hi, ok := ch.Next(w)
		if !ok {
			return
		}
		injectFault(w, lo, hi, ls.rc)
		if ls.load == nil {
			if _, completed := ls.runChunk(w, lo, hi, body); !completed {
				return
			}
			continue
		}
		t0 := time.Now()
		done, completed := ls.runChunk(w, lo, hi, body)
		ls.load.addChunk(w, lo, hi, int64(done), t0, time.Since(t0))
		if !completed {
			return
		}
	}
}

// ForCtx executes body(worker, i) for every i in [0, n) under schedule
// s, like For, but threads a run control: when rc is cancelled, stopped
// or over budget, workers drain at their next chunk boundary (or within
// cancelStride iterations inside a chunk) and ForCtx returns rc's stop
// cause with the remaining iterations unrun. A panic in body is
// contained: the panicking worker records a *runctl.WorkerPanicError,
// the remaining chunks are cancelled, the team drains cleanly, and the
// error is returned instead of crashing the process.
//
// rc may be nil, which disables cancellation and budgets but keeps
// panic containment. loop, when non-nil, is the record of this loop
// (Record.Open): the team fills its measured half and closes it when
// the workers have joined. A nil return value means every iteration
// ran.
func (t *Team) ForCtx(rc *runctl.Control, loop *Loop, n int, s Schedule, body func(worker, i int)) error {
	ls := &loopState{rc: rc}
	if err := rc.Err(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	p := t.workers
	if p > n {
		p = n
	}
	ls.load = loop.begin(n, p)
	defer ls.load.finish()
	return t.runLoop(ls, p, NewChunker(n, p, s), body)
}

// runLoop drives a prepared chunker on the team and returns the loop's
// outcome — the shared tail of ForCtx and ForWeightedCtx.
//
// Worker goroutines are spawned fresh per loop, which is what makes
// per-run/per-phase pprof attribution free: goroutines inherit the
// spawner's pprof label set, so when the coordinator carries
// fim_run_id/fim_phase labels (internal/obs/prof, set at each
// level_start), every worker's CPU samples are labeled with no
// scheduler plumbing at all.
func (t *Team) runLoop(ls *loopState, p int, ch Chunker, body func(worker, i int)) error {
	if p == 1 {
		ls.runWorker(0, ch, body)
		return ls.err()
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			ls.runWorker(w, ch, body)
		}(w)
	}
	wg.Wait()
	return ls.err()
}

// ForWeightedCtx is ForCtx with a per-iteration cost estimate. Under
// schedule(static) with the default chunk, the contiguous per-worker
// blocks are cut at near-equal cumulative weight instead of equal
// iteration count — the paper's static-balance property preserved when
// iterations are whole prefix blocks of very different combine cost.
// Every other schedule self-balances by handing out work on demand, so
// the weights are ignored and the call is exactly ForCtx. len(weights)
// must be n; anything else (including nil) degrades to ForCtx.
func (t *Team) ForWeightedCtx(rc *runctl.Control, loop *Loop, n int, weights []int64, s Schedule, body func(worker, i int)) error {
	if len(weights) != n || n == 0 || s.Policy != Static || s.Chunk > 0 {
		return t.ForCtx(rc, loop, n, s, body)
	}
	ls := &loopState{rc: rc}
	if err := rc.Err(); err != nil {
		return err
	}
	p := t.workers
	if p > n {
		p = n
	}
	ls.load = loop.begin(n, p)
	defer ls.load.finish()
	return t.runLoop(ls, p, newWeightedStaticChunker(n, p, weights), body)
}

// For executes body(worker, i) for every i in [0, n) under schedule s.
// Iterations within a chunk run in order on one worker; chunks run
// concurrently across workers. For returns when every iteration has
// completed. A panic in body is recovered, the team drains, and the
// panic is re-raised as a *runctl.WorkerPanicError on the caller's
// goroutine; use ForCtx to receive it as an error instead.
func (t *Team) For(n int, s Schedule, body func(worker, i int)) {
	if err := t.ForCtx(nil, nil, n, s, body); err != nil {
		panic(err)
	}
}
