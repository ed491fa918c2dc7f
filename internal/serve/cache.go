package serve

import (
	"context"
	"sync"
	"time"

	fim "repro"
)

// cacheKey identifies a mining problem up to the support threshold: the
// dataset content hash (or built-in name@scale), algorithm and
// representation. The threshold is deliberately NOT part of the key —
// a complete run at absolute support s answers every request at
// support >= s by filtering, so the cache keeps the lowest-support
// complete answer per key and serves the rest from it.
type cacheKey struct {
	dataset string
	algo    string
	rep     string
}

// cacheEntry is one complete mining answer: the decoded itemsets of a
// run at minSupAbs, in canonical order.
type cacheEntry struct {
	minSupAbs int
	sets      []fim.ItemsetCount
	maxK      int
	bytes     int64 // cost accounting
	lastUse   int64 // eviction recency (monotonic sequence, not time)
}

// resultCache is the single-node answer cache with cost-aware eviction:
// entries are charged by payload bytes, and when the budget overflows
// the entry with the highest staleness x size score is evicted first —
// a big stale answer goes before a small one of equal age.
type resultCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	seq     int64
	entries map[cacheKey]*cacheEntry

	// Lookup outcomes and evictions, for /stats.
	hits, filtered, misses, evictions int64
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{budget: budget, entries: make(map[cacheKey]*cacheEntry)}
}

func entryBytes(sets []fim.ItemsetCount) int64 {
	var b int64
	for _, c := range sets {
		b += int64(len(c.Items))*4 + 24 // items + slice header/support
	}
	return b + 64
}

// lookup answers a request at absolute support absSup if a complete
// entry at support <= absSup exists. The exact-threshold case is a
// plain hit; a lower-threshold entry answers by filtering — supports
// are exact either way because a run at lower minsup finds a superset
// of the itemsets with identical counts.
func (c *resultCache) lookup(k cacheKey, absSup int) (sets []fim.ItemsetCount, maxK int, ok bool) {
	if c.budget < 0 {
		return nil, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[k]
	if !found || e.minSupAbs > absSup {
		c.misses++
		return nil, 0, false
	}
	c.seq++
	e.lastUse = c.seq
	if e.minSupAbs == absSup {
		c.hits++
		return e.sets, e.maxK, true
	}
	c.filtered++
	out := make([]fim.ItemsetCount, 0, len(e.sets))
	for _, ic := range e.sets {
		if ic.Support >= absSup {
			out = append(out, ic)
			if len(ic.Items) > maxK {
				maxK = len(ic.Items)
			}
		}
	}
	return out, maxK, true
}

// store saves a complete answer. Only a lower (or first) support
// threshold replaces an existing entry: the lowest-minsup answer
// dominates every higher one.
func (c *resultCache) store(k cacheKey, absSup int, sets []fim.ItemsetCount, maxK int) {
	if c.budget < 0 {
		return
	}
	nb := entryBytes(sets)
	if c.budget > 0 && nb > c.budget {
		return // larger than the whole cache: not cacheable
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, found := c.entries[k]; found {
		if old.minSupAbs <= absSup {
			return // existing entry already answers this and more
		}
		c.used -= old.bytes
		delete(c.entries, k)
	}
	c.seq++
	c.entries[k] = &cacheEntry{minSupAbs: absSup, sets: sets, maxK: maxK, bytes: nb, lastUse: c.seq}
	c.used += nb
	c.evict()
}

// evict drops highest staleness x size first until within budget.
// Linear scan: the cache holds answers, not objects, so entry counts
// stay small.
func (c *resultCache) evict() {
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget && len(c.entries) > 1 {
		var worstKey cacheKey
		var worstScore float64 = -1
		for k, e := range c.entries {
			score := float64(c.seq-e.lastUse+1) * float64(e.bytes)
			if score > worstScore {
				worstScore, worstKey = score, k
			}
		}
		c.used -= c.entries[worstKey].bytes
		delete(c.entries, worstKey)
		c.evictions++
	}
	// A single over-budget entry is kept (it was admitted under the
	// size gate above, so this only happens after a budget shrink).
}

func (c *resultCache) stats() (hits, filtered, misses, bytes, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.filtered, c.misses, c.used, c.evictions
}

// flightGroup deduplicates identical in-flight requests (same dataset,
// algorithm, representation, absolute support AND budgets): followers
// wait for the leader's outcome instead of re-running the same mining
// problem side by side. Unlike the cache, the flight key includes the
// threshold and every budget that can stop a run early — a follower
// must see the exact answer it asked for, status code and all.
type flightGroup struct {
	mu      sync.Mutex
	flights map[flightKey]*flight
	joins   int64 // followers that joined a leader's flight
}

type flightKey struct {
	cacheKey
	absSup      int
	maxItemsets int64
	maxMemory   int64
	maxDuration time.Duration
	degrade     bool
}

// flight is one in-progress mining request and its eventual outcome.
// Its run goes on under ctx, which no one client's request cancels: a
// leader whose client disconnects still answers its followers. The
// run is cancelled when the last waiting client, leader or follower,
// has gone (or by Drain, through the registry).
type flight struct {
	done    chan struct{}
	out     *runOutcome
	ctx     context.Context
	cancel  context.CancelFunc
	waiters int // clients still waiting for out, under the group's mu
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[flightKey]*flight)}
}

// join adds a client, whose request context is client, to the
// in-flight run for k, or registers it as the run's leader
// (leader=true). A leader must call its finish func with the outcome
// exactly once, even on failure. The client waits until client ends or
// until the caller calls stop, which it must do once it has its answer.
func (g *flightGroup) join(k flightKey, client context.Context) (f *flight, leader bool, finish func(*runOutcome), stop func() bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f, ok := g.flights[k]
	if ok {
		g.joins++
	} else {
		f = &flight{done: make(chan struct{})}
		f.ctx, f.cancel = context.WithCancel(context.WithoutCancel(client))
		g.flights[k] = f
		finish = func(out *runOutcome) {
			g.mu.Lock()
			if g.flights[k] == f {
				delete(g.flights, k)
			}
			g.mu.Unlock()
			f.out = out
			close(f.done)
			f.cancel()
		}
	}
	f.waiters++
	return f, !ok, finish, context.AfterFunc(client, func() { g.leave(k, f) })
}

// leave drops one waiting client from f. When none is left the run is
// cancelled and leaves the group, so a new request starts a flight of
// its own instead of joining one that is stopping.
func (g *flightGroup) leave(k flightKey, f *flight) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f.waiters--; f.waiters > 0 {
		return
	}
	if g.flights[k] == f {
		delete(g.flights, k)
	}
	f.cancel()
}

// joined reports how many followers have joined a leader's flight.
func (g *flightGroup) joined() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.joins
}
