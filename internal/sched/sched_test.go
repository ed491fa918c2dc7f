package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func allSchedules() []Schedule {
	return []Schedule{
		{Static, 0}, {Static, 1}, {Static, 3}, {Static, 100},
		{Dynamic, 0}, {Dynamic, 1}, {Dynamic, 7},
		{Guided, 0}, {Guided, 2},
	}
}

// drainChunker collects every range a chunker deals out, simulating p
// workers that alternate pulls.
func drainChunker(c Chunker, p int) [][2]int {
	var out [][2]int
	active := make([]bool, p)
	for i := range active {
		active[i] = true
	}
	remaining := p
	for w := 0; remaining > 0; w = (w + 1) % p {
		if !active[w] {
			continue
		}
		lo, hi, ok := c.Next(w)
		if !ok {
			active[w] = false
			remaining--
			continue
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// TestChunkerCoverage: every schedule must cover [0,n) exactly once.
func TestChunkerCoverage(t *testing.T) {
	for _, s := range allSchedules() {
		for _, n := range []int{0, 1, 5, 16, 97, 256} {
			for _, p := range []int{1, 2, 3, 8, 16, 300} {
				seen := make([]int, n)
				for _, ch := range drainChunker(NewChunker(n, p, s), p) {
					if ch[0] < 0 || ch[1] > n || ch[0] >= ch[1] {
						t.Fatalf("%v n=%d p=%d: bad chunk %v", s, n, p, ch)
					}
					for i := ch[0]; i < ch[1]; i++ {
						seen[i]++
					}
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("%v n=%d p=%d: iteration %d covered %d times", s, n, p, i, c)
					}
				}
			}
		}
	}
}

func TestStaticBlocksAreContiguousAndBalanced(t *testing.T) {
	c := newStaticChunker(10, 3, 0)
	want := [][2]int{{0, 4}, {4, 7}, {7, 10}}
	for w, exp := range want {
		lo, hi, ok := c.Next(w)
		if !ok || lo != exp[0] || hi != exp[1] {
			t.Errorf("worker %d got [%d,%d) ok=%v, want %v", w, lo, hi, ok, exp)
		}
		if _, _, ok := c.Next(w); ok {
			t.Errorf("worker %d got a second block under static,0", w)
		}
	}
}

func TestStaticChunkRoundRobin(t *testing.T) {
	c := newStaticChunker(7, 2, 2)
	// chunks: [0,2)[2,4)[4,6)[6,7) dealt w0,w1,w0,w1
	got0 := [][2]int{}
	for {
		lo, hi, ok := c.Next(0)
		if !ok {
			break
		}
		got0 = append(got0, [2]int{lo, hi})
	}
	if len(got0) != 2 || got0[0] != [2]int{0, 2} || got0[1] != [2]int{4, 6} {
		t.Errorf("worker 0 chunks = %v", got0)
	}
}

func TestDynamicChunkSizes(t *testing.T) {
	c := NewChunker(10, 4, Schedule{Dynamic, 3})
	var sizes []int
	for {
		lo, hi, ok := c.Next(0)
		if !ok {
			break
		}
		sizes = append(sizes, hi-lo)
	}
	want := []int{3, 3, 3, 1}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("chunk %d size = %d, want %d", i, sizes[i], want[i])
		}
	}
}

func TestGuidedChunksShrink(t *testing.T) {
	c := NewChunker(100, 4, Schedule{Guided, 1})
	var sizes []int
	for {
		lo, hi, ok := c.Next(0)
		if !ok {
			break
		}
		sizes = append(sizes, hi-lo)
	}
	// First chunk is ceil(100/4)=25; sizes must be non-increasing down to 1.
	if sizes[0] != 25 {
		t.Errorf("first guided chunk = %d, want 25", sizes[0])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Errorf("guided chunks grew: %v", sizes)
		}
	}
}

func TestGuidedRespectsMinChunk(t *testing.T) {
	c := NewChunker(40, 8, Schedule{Guided, 6})
	for {
		lo, hi, ok := c.Next(0)
		if !ok {
			break
		}
		if hi-lo < 6 && hi != 40 {
			t.Errorf("guided dealt %d < minChunk before the tail", hi-lo)
		}
	}
}

func TestTeamForExecutesEachIterationOnce(t *testing.T) {
	for _, s := range allSchedules() {
		for _, workers := range []int{1, 2, 4, 16} {
			team := NewTeam(workers)
			const n = 500
			counts := make([]int64, n)
			team.For(n, s, func(_, i int) {
				atomic.AddInt64(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("%v workers=%d: iteration %d ran %d times", s, workers, i, c)
				}
			}
		}
	}
}

func TestTeamForZeroIterations(t *testing.T) {
	ran := false
	NewTeam(4).For(0, Schedule{Dynamic, 1}, func(_, _ int) { ran = true })
	if ran {
		t.Error("body ran for n=0")
	}
}

func TestTeamClampsWorkers(t *testing.T) {
	if NewTeam(0).Workers() != 1 || NewTeam(-5).Workers() != 1 {
		t.Error("NewTeam did not clamp to 1")
	}
}

// TestDynamicBalancesSkewedWork: with wildly uneven task costs, dynamic
// scheduling must keep worker finish times closer than a static split —
// the paper's reason for choosing dynamic in Eclat.
func TestDynamicBalancesSkewedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const n = 64
	cost := make([]time.Duration, n)
	for i := range cost {
		cost[i] = 100 * time.Microsecond
	}
	cost[0] = 10 * time.Millisecond // one huge task at the front
	run := func(s Schedule) time.Duration {
		team := NewTeam(4)
		start := time.Now()
		team.For(n, s, func(_, i int) {
			busyWait(cost[i])
		})
		return time.Since(start)
	}
	// Static assigns the big task plus a quarter of the rest to worker 0;
	// dynamic gives worker 0 only the big task while others drain the rest.
	stat := run(Schedule{Static, 0})
	dyn := run(Schedule{Dynamic, 1})
	if dyn > stat*2 {
		t.Errorf("dynamic (%v) much slower than static (%v) on skewed work", dyn, stat)
	}
}

func busyWait(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// Property: coverage holds for random (n, p, schedule) combinations.
func TestQuickChunkerCoverage(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(300)
		p := 1 + r.Intn(32)
		s := Schedule{Policy(r.Intn(3)), r.Intn(5)}
		seen := make([]int, n)
		for _, ch := range drainChunker(NewChunker(n, p, s), p) {
			for i := ch[0]; i < ch[1]; i++ {
				seen[i]++
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("chunker coverage: %v", err)
	}
}

// Chunkers must be safe under concurrent pulls.
func TestChunkerConcurrentSafety(t *testing.T) {
	for _, s := range allSchedules() {
		const n, p = 10000, 8
		c := NewChunker(n, p, s)
		seen := make([]int64, n)
		var wg sync.WaitGroup
		for w := 0; w < p; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					lo, hi, ok := c.Next(w)
					if !ok {
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt64(&seen[i], 1)
					}
				}
			}(w)
		}
		wg.Wait()
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("%v: iteration %d seen %d times", s, i, v)
			}
		}
	}
}

func BenchmarkForDynamic(b *testing.B) {
	team := NewTeam(4)
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		team.For(1024, Schedule{Dynamic, 8}, func(_, i int) {
			atomic.AddInt64(&sink, int64(i))
		})
	}
}

func BenchmarkForStatic(b *testing.B) {
	team := NewTeam(4)
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		team.For(1024, Schedule{Static, 0}, func(_, i int) {
			atomic.AddInt64(&sink, int64(i))
		})
	}
}

func TestPolicyStrings(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Error("policy names")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy name")
	}
	for _, name := range []string{"static", "dynamic", "guided"} {
		p, err := ParsePolicy(name)
		if err != nil || p.String() != name {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	for _, name := range []string{"steal", "work-stealing"} {
		if _, err := ParsePolicy(name); err == nil {
			t.Errorf("ParsePolicy accepted unknown name %q", name)
		}
	}
	if got := (Schedule{Dynamic, 4}).String(); got != "dynamic,4" {
		t.Errorf("Schedule.String = %q", got)
	}
	if got := (Schedule{Static, 0}).String(); got != "static" {
		t.Errorf("Schedule.String = %q", got)
	}
}

func TestNewChunkerPanics(t *testing.T) {
	cases := []func(){
		func() { NewChunker(-1, 2, Schedule{}) },
		func() { NewChunker(5, 0, Schedule{}) },
		func() { NewChunker(5, 2, Schedule{Policy: Policy(9)}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestForSingleWorkerSequential(t *testing.T) {
	team := NewTeam(1)
	var order []int
	team.For(5, Schedule{Policy: Dynamic, Chunk: 2}, func(_, i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single worker ran out of order: %v", order)
		}
	}
}
