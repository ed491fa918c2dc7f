// Package apriori implements Algorithm 1 of the paper: generational
// (breadth-first) frequent itemset mining over any vertical
// representation (the paper's three plus the hybrid, tiled and nodeset
// extensions), with the support-counting loop parallelized by an
// OpenMP-style worker team under static scheduling (§III).
//
// Per generation the miner:
//
//  1. joins sibling pairs of the candidate trie's top level
//     (candidate_generation),
//  2. prunes candidates with an infrequent subset (in generation 2,
//     the pairs core.LevelTwo's pair count found infrequent, when its
//     cost rule counts),
//  3. counts every candidate's support in parallel — each iteration
//     combines one parent payload with its whole sibling run into the
//     candidates' own payloads, with no shared mutable state ("each
//     thread calculates an independent support and does not have data
//     dependency"), and recycles the infrequent ones on the spot,
//  4. commits the frequent survivors as the next trie level
//     (candidate_pruning).
//
// The loop terminates when a generation yields no frequent candidates.
//
// Because every generation retains the payload of every frequent
// candidate, Apriori's working set is the full breadth of a level — the
// memory-footprint property behind its poor tidset/bitvector scalability
// in the paper's evaluation (§V-A).
package apriori

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trie"
	"repro/internal/vertical"
)

// DefaultSchedule is the paper's choice for Apriori's support-counting
// loop: static scheduling ("the static scheduling can partition the
// workload as there [are] enough iterations").
var DefaultSchedule = sched.Schedule{Policy: sched.Static}

// Mine runs Apriori over the recoded database with the given absolute
// minimum support.
//
// When opt.Control is set, the run is cancellable and budgeted: the
// team's counting loops drain at chunk boundaries, the live payload
// footprint of each generation is charged against the memory budget, and
// at every level boundary core.Cure either stops a breaching run
// (*runctl.BudgetError) or — under DegradeToDiffset, on a kind
// vertical.Degradable accepts, when the diffsets would be smaller —
// rewrites the newest level as diffsets relative to each node's
// generation parent and continues under the bounded representation.
// The level-2 pair-count tables are charged while they are live.
// A stopped run returns the partial Result (Incomplete set, supports of
// everything committed exact) together with the stop cause.
func Mine(rec *dataset.Recoded, minSup int, opt core.Options) (*core.Result, error) {
	if minSup < 1 {
		minSup = 1
	}
	rep := vertical.New(opt.Representation)
	schedule := DefaultSchedule
	if opt.Schedule != nil {
		schedule = *opt.Schedule
	}
	team := sched.NewTeam(opt.Workers)
	loops := opt.Record
	rc := opt.Control
	o := opt.Observer
	kc := opt.Kernels

	res := &core.Result{
		Algorithm:      core.Apriori,
		Representation: opt.Representation,
		MinSup:         minSup,
		Rec:            rec,
	}

	// Generation 1: the recode pass already counted item supports.
	// nodes holds the payload of each level-1 node, index-aligned with
	// the trie level.
	nodes, err := rep.RootsOn(rec, dataset.Pass{Team: team, Control: rc, Record: loops})
	if err != nil {
		res.Incomplete = true
		res.StopCause = err
		return res, err
	}
	vertical.CountRoots(kc, rep.Kind(), nodes)
	tr := trie.NewRoot(rec.Items)

	// Per-worker arenas for the combine loop: candidate payloads recycle
	// within and across generations, so once the free lists warm up
	// the counting loop stops touching the allocator.
	arenas := make([]*vertical.Arena, team.Workers())
	for w := range arenas {
		arenas[w] = vertical.NewArena(minSup)
	}

	// collect gathers every committed level into res and the workers'
	// kernel counts into kc; valid at any stop point because Commit only
	// ever appends whole frequent levels, and the team has joined.
	collect := func(err error) (*core.Result, error) {
		for _, a := range arenas {
			kc.Merge(&a.Kernels)
		}
		res.Counts, res.MaxK = tr.Counts()
		if err != nil {
			res.Incomplete = true
			res.StopCause = err
		}
		return res, err
	}

	// Roots are seeded from the recoded database and may share backing
	// storage with it, so they are never recycled; every later level is
	// miner-owned and safe to release once retired.
	parentsReleasable := false

	obs.Emit(o, obs.Event{Type: obs.LevelStart, Level: 1, Phase: "apriori/roots",
		Candidates: len(nodes)})
	rc.ChargeMem(vertical.NodesBytes(nodes))
	if err := rc.AddItemsets(len(nodes)); err != nil {
		return collect(err)
	}
	if rep, err = core.Cure(opt, res, rep, 1, core.RootLevel(nodes)); err != nil {
		return collect(err)
	}
	obs.Emit(o, obs.Event{Type: obs.LevelEnd, Level: 1, Phase: "apriori/roots",
		Frequent: len(nodes), LiveBytes: rc.MemUsed()})

	for gen := 1; tr.Levels[len(tr.Levels)-1].Len() != 0; gen++ {
		if err := rc.Err(); err != nil {
			return collect(err)
		}
		levelStart := time.Now()
		cands := tr.Generate()
		generated := cands.Len()
		pruned := 0
		if gen == 1 && generated > 0 {
			// Generation 2's candidates are the root pairs in ascending
			// (i, j) order, so candidate t is pair slot t of the triangle;
			// the pairs the count rejects are pruned before counting.
			keep, rejected, err := core.LevelTwo(opt, rec, rep.Kind(), nodes, minSup, team)
			if err != nil {
				return collect(err)
			}
			if pruned = rejected; pruned > 0 {
				cands.Filter(keep)
			}
		}
		if gen >= 2 && generated > 0 {
			// Subset pruning runs on the team, each check descending the
			// committed level tables (a 2-itemset's only subsets are its
			// parents, so generation 2 has nothing to check). The model
			// charges pruning as the counting loop's serial work, so the
			// check loop is measured but not replayed.
			prune := loops.OpenMeasured(fmt.Sprintf("apriori/prune%d", gen+1), schedule)
			var err error
			if pruned, err = tr.Prune(cands, team, prune, schedule, rc); err != nil {
				return collect(err)
			}
		}
		n := cands.Len()
		phaseName := fmt.Sprintf("apriori/gen%d", gen+1)
		if n == 0 {
			if gen == 1 && generated > 0 {
				// The count rejected every pair: generation 2 still
				// reports its candidates and their pruning, and that no
				// pair is frequent, as a run that combines them does.
				obs.Emit(o, obs.Event{Type: obs.LevelStart, Level: 2, Phase: phaseName,
					Candidates: generated, Pruned: pruned})
				obs.Emit(o, obs.Event{Type: obs.LevelEnd, Level: 2, Phase: phaseName,
					Pruned: pruned, LiveBytes: rc.MemUsed(), ElapsedNS: int64(time.Since(levelStart))})
			}
			break
		}
		obs.Emit(o, obs.Event{Type: obs.LevelStart, Level: gen + 1, Phase: phaseName,
			Candidates: generated, Pruned: pruned})
		loop := loops.Open(phaseName, schedule, n, true)
		// Serial overhead of generation + pruning: proportional to the
		// candidate rows touched.
		loop.AddSerial(int64(n) * 16)
		if loop.Modelled() {
			// The parent pool is the previous level's payloads, shared
			// machine-wide.
			loop.Model.UniqueParent = vertical.NodesBytes(nodes)
		}

		// Parallel support counting (Algorithm 1 line 8) over prefix
		// blocks: each iteration keeps one parent px resident and
		// combines it against its entire sibling run in a single kernel
		// call, with the static schedule's contiguous cuts weighted by
		// estimated combine cost so block granularity keeps the paper's
		// balance properties. An infrequent child goes straight back to
		// the worker's arena inside the block that built it, so the live
		// footprint holds only frequent children and a later block reuses
		// the buffer; the model still charges every candidate's payload.
		childNodes := make([]vertical.Node, n)
		var blocks []int32 // the parent nodes with a non-empty child run
		for p := range nodes {
			if cands.First[p+1] > cands.First[p] {
				blocks = append(blocks, int32(p))
			}
		}
		weights := make([]int64, len(blocks))
		for b, p := range blocks {
			lo, hi := cands.First[p], cands.First[p+1]
			w := int64(hi-lo) * int64(nodes[p].Bytes())
			for _, py := range cands.Py[lo:hi] {
				w += int64(nodes[py].Bytes())
			}
			weights[b] = w
		}
		err := team.ForWeightedCtx(rc, loop, len(blocks), weights, schedule, func(worker, b int) {
			p := blocks[b]
			lo, hi := int(cands.First[p]), int(cands.First[p+1])
			m := hi - lo
			px := nodes[p]
			a := arenas[worker]
			pys, out := a.NodeScratch(m)
			for k := 0; k < m; k++ {
				pys[k] = nodes[cands.Py[lo+k]]
			}
			rep.CombineManyInto(px, pys, out, a)
			pxBytes := int64(px.Bytes())
			remoteParent := pxBytes // px streamed once per block
			var mem int64
			for k := 0; k < m; k++ {
				i := lo + k
				child := out[k]
				cands.Level.Supports[i] = child.Support()
				cb := int64(child.Bytes())
				cost := pxBytes + int64(pys[k].Bytes())
				loop.Add(i, cost+cb, remoteParent+int64(pys[k].Bytes()), cb)
				remoteParent = 0
				if child.Support() < minSup {
					// Children never alias parents or each other, so
					// recycling an infrequent one is safe.
					a.Release(child)
					continue
				}
				childNodes[i] = child
				mem += cb
			}
			rc.ChargeMem(mem)
		})
		if err != nil {
			return collect(err)
		}

		level, kept := tr.Commit(cands, minSup)
		loop.AddSerial(int64(n) * 8)
		// Carry forward the frequent payloads, aligned with the new level.
		next := make([]vertical.Node, level.Len())
		for w, i := range kept {
			next[w] = childNodes[i]
		}
		if err := rc.AddItemsets(level.Len()); err != nil {
			return collect(err)
		}

		// Memory-budget decision point: the frequent children are live
		// and their parents are still live — the generation's peak, since
		// infrequent children were recycled as they were built.
		rep, err = core.Cure(opt, res, rep, gen+1, func(visit func(*vertical.Node, vertical.Node)) {
			for w := range next {
				visit(&next[w], nodes[level.Parents[w]])
			}
		})
		if err != nil {
			return collect(err)
		}
		rc.ChargeMem(-vertical.NodesBytes(nodes)) // retire the parent level
		if parentsReleasable {
			for j, p := range nodes {
				arenas[j%len(arenas)].Release(p)
			}
		}
		parentsReleasable = true // committed levels are miner-owned
		nodes = next
		obs.Emit(o, obs.Event{Type: obs.LevelEnd, Level: gen + 1, Phase: phaseName,
			Candidates: n, Pruned: pruned, Frequent: level.Len(),
			LiveBytes: rc.MemUsed(), ElapsedNS: int64(time.Since(levelStart))})
	}

	return collect(nil)
}
