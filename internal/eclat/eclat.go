// Package eclat implements Algorithm 2 of the paper: depth-first
// equivalence-class frequent itemset mining over any of the three
// vertical representations, parallelized with dynamic scheduling and the
// smallest possible chunk (§IV: "we choose the chunksize to as small as
// possible. The scheduler is set to dynamic so that the load imbalance
// can be minimized").
//
// The parallel decomposition is selected by core.Options.EclatDepth, k:
// one miner flattens the first k−1 levels breadth-first (each expansion
// stays class-local and runs as its own task), then runs one
// depth-first recursion task per frequent k-itemset subtree. Each extra
// level multiplies the task count and divides the largest task.
//
//   - Depth 1 flattens nothing: its subtree stage runs over one class
//     holding every frequent item, one task per first-level equivalence
//     class (one frequent item and everything joinable to its right).
//     This is the literal outer loop of Algorithm 2, the paper's text
//     reading; its parallelism is capped by the frequent-item count, a
//     limit the paper itself notes ("poses a limit on the possible
//     number of threads").
//   - The default is DefaultDepth (4), the shallowest flattening whose
//     task counts and balance support the speedups the paper reports on
//     datasets with fewer frequent items than threads.
//
// Every flattened level is the same step of Algorithm 2, an atom joined
// with its later siblings through one vertical.CombineManyInto call.
// Level 2 is that step over the class of the roots, split into one task
// per root pair core.LevelTwo keeps: every pair, or only the frequent
// ones when its cost rule says counting them from the rows first is
// cheaper.
//
// At every depth, a worker that claims a subtree materializes every
// intermediate payload itself, so after the initial reads of shared data
// there is no cross-worker memory traffic — the data-independence
// property the paper credits for Eclat's scalability.
//
// One optimization goes beyond the paper: zero-allocation combine.
// Every recursion-scoped payload comes from a per-worker vertical.Arena
// and returns to it when its subtree is mined, so the depth-first hot
// loop stops paying the Go allocator per candidate (hit/miss rates are
// visible as the arena_hits/arena_misses kernel counters).
package eclat

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sched"
	"repro/internal/vertical"
)

// DefaultSchedule is the paper's choice for Eclat's parallel loops:
// dynamic scheduling with chunk size 1.
var DefaultSchedule = sched.Schedule{Policy: sched.Dynamic, Chunk: 1}

// DefaultDepth is the flattening depth used when Options.EclatDepth is 0:
// the search is expanded breadth-first (class-local, in parallel) down to
// itemset size 4 before switching to per-subtree depth-first recursion.
// Deeper flattening trades a little shared traffic for far smaller
// maximum task size — the load-balance knob the A4 ablation sweeps.
const DefaultDepth = 4

// atom is one member of an equivalence class: the last item of the
// itemset plus its vertical payload relative to the class prefix.
type atom struct {
	item itemset.Item
	node vertical.Node
}

// Mine runs Eclat over the recoded database with the given absolute
// minimum support.
//
// When opt.Control is set, the run is cancellable and budgeted: every
// parallel stage drains at chunk boundaries, the recursion checks the
// stop flag at each class descent, and live payloads are charged
// against the memory budget per materialized level (flattening stages)
// and per class (recursion), as are the level-2 pair-count tables while
// they are live. At the roots and at every flattened level boundary
// core.Cure either rewrites the level as diffsets (once, with
// DegradeToDiffset set, on a kind vertical.Degradable accepts, and only
// when the diffsets would be smaller) and continues, or stops a
// breaching run with a *runctl.BudgetError; the subtree stage has no
// boundary after it, so it enforces the budget at every chunk. A
// stopped run returns the partial Result (Incomplete set, all emitted
// supports exact) with the stop cause.
func Mine(rec *dataset.Recoded, minSup int, opt core.Options) (*core.Result, error) {
	if minSup < 1 {
		minSup = 1
	}
	rep := vertical.New(opt.Representation)
	schedule := DefaultSchedule
	if opt.Schedule != nil {
		schedule = *opt.Schedule
	}
	rc := opt.Control

	res := &core.Result{
		Algorithm:      core.Eclat,
		Representation: opt.Representation,
		MinSup:         minSup,
		Rec:            rec,
	}

	finish := func(err error) (*core.Result, error) {
		if err != nil {
			res.Incomplete = true
			res.StopCause = err
		}
		return res, err
	}

	team := sched.NewTeam(opt.Workers)
	roots, err := rep.RootsOn(rec, dataset.Pass{Team: team, Control: rc, Record: opt.Record})
	if err != nil {
		return finish(err)
	}
	vertical.CountRoots(opt.Kernels, rep.Kind(), roots)
	n := len(roots)
	// Level-1 itemsets are frequent by construction of the recode pass.
	for i := 0; i < n; i++ {
		res.Counts = append(res.Counts, core.ItemsetCount{
			Items:   itemset.New(itemset.Item(i)),
			Support: roots[i].Support(),
		})
	}
	if n > 0 {
		res.MaxK = 1
	}
	if n < 2 {
		return finish(rc.AddItemsets(n))
	}

	rc.ChargeMem(vertical.NodesBytes(roots))
	if err := rc.AddItemsets(n); err != nil {
		return finish(err)
	}
	rep, err = core.Cure(opt, res, rep, 1, core.RootLevel(roots))
	if err == nil {
		err = rc.Err()
	}
	if err != nil {
		return finish(err)
	}

	workers := make([]*minerState, team.Workers())
	for w := range workers {
		workers[w] = &minerState{minSup: minSup, rc: rc, arena: vertical.NewArena(minSup)}
	}
	depth := opt.EclatDepth
	if depth == 0 {
		depth = DefaultDepth
	}
	m := &flattenedMiner{rep: rep, minSup: minSup, depth: depth,
		team: team, schedule: schedule, loops: opt.Record, rc: rc, o: opt.Observer,
		opt: opt, res: res, workers: workers}
	err = m.run(roots)
	// The team has joined: sum the workers' kernel counts and outputs.
	for _, w := range workers {
		opt.Kernels.Merge(&w.arena.Kernels)
		for _, c := range w.out {
			res.Counts = append(res.Counts, c)
			res.MaxK = max(res.MaxK, len(c.Items))
		}
	}
	return finish(err)
}

// eqClass is one equivalence class of the flattened search: a shared
// prefix and the payload-carrying atoms that extend it. Its members are
// itemsets of size len(prefix)+1.
type eqClass struct {
	prefix itemset.Itemset
	atoms  []atom
}

// expansion is one work unit: the atom at pos of a class joined with
// the sibling run atoms[lo:hi].
type expansion struct {
	class, pos, lo, hi int32
}

// expansions enumerates every (class, pos) pair with at least one later
// sibling to join (the last atom of a class roots an empty subtree),
// each joined with all of its later siblings.
func expansions(classes []eqClass) []expansion {
	var out []expansion
	for c := range classes {
		n := int32(len(classes[c].atoms))
		for pos := int32(0); pos+1 < n; pos++ {
			out = append(out, expansion{class: int32(c), pos: pos, lo: pos + 1, hi: n})
		}
	}
	return out
}

// pairTasks is level 2's work list: the root class split into one task
// per root pair core.LevelTwo keeps (every pair, or only the frequent
// ones when its rule counts them from the rows first), each a block of
// one sibling. It also returns the pairs the count rejected. The grain
// stays the pair's: tasks of a whole root row cut the simulated
// 256-thread speedups of the paper tables several-fold.
func (f *flattenedMiner) pairTasks(root eqClass) ([]expansion, int, error) {
	n := len(root.atoms)
	nodes := make([]vertical.Node, n)
	for i, a := range root.atoms {
		nodes[i] = a.node
	}
	keep, rejected, err := core.LevelTwo(f.opt, f.res.Rec, f.rep.Kind(), nodes, f.minSup, f.team)
	if err != nil {
		return nil, 0, err
	}
	tasks := make([]expansion, 0, n*(n-1)/2-rejected)
	for i, t := 0, 0; i < n; i++ {
		for j := i + 1; j < n; j, t = j+1, t+1 {
			if keep == nil || keep[t] {
				tasks = append(tasks, expansion{pos: int32(i), lo: int32(j), hi: int32(j + 1)})
			}
		}
	}
	return tasks, rejected, nil
}

// maxClassBytes returns the largest per-class payload footprint — the
// working set one expansion task reads. This stays class-local however
// large the whole level is: Eclat's locality advantage over Apriori.
func maxClassBytes(classes []eqClass) int64 {
	var mx int64
	for _, c := range classes {
		mx = max(mx, atomsBytes(c.atoms))
	}
	return mx
}

// flattenedMiner carries the state of one flattened Eclat run: the
// (possibly degrading) representation, run control, and each worker's
// miner state.
type flattenedMiner struct {
	rep      vertical.Representation
	minSup   int
	depth    int
	team     *sched.Team
	schedule sched.Schedule
	loops    *sched.Record
	rc       *runctl.Control
	o        obs.Observer
	opt      core.Options // run-wide options core.Cure reads
	res      *core.Result
	workers  []*minerState
}

// cure runs the memory-budget step at a flattened level boundary:
// parents[c] is the generation parent of every atom of classes[c].
func (f *flattenedMiner) cure(level int, classes []eqClass, parents []vertical.Node) error {
	var err error
	f.rep, err = core.Cure(f.opt, f.res, f.rep, level, func(visit func(*vertical.Node, vertical.Node)) {
		for c := range classes {
			for a := range classes[c].atoms {
				visit(&classes[c].atoms[a].node, parents[c])
			}
		}
	})
	return err
}

// run expands the search breadth-first (class-local, parallel) down to
// itemsets of size `depth`, then runs one depth-first recursion task per
// size-`depth` subtree. Every level starts from one class, with the
// empty prefix, whose atoms are the roots: depth 1 expands nothing and
// runs its subtree stage over that class. Depth 2 parallelizes over
// frequent 2-itemset subtrees; each extra level multiplies the task
// count and divides the largest task, at the cost of materializing one
// more level of shared intermediate payloads.
func (f *flattenedMiner) run(roots []vertical.Node) error {
	atoms := make([]atom, len(roots))
	for i, r := range roots {
		atoms[i] = atom{item: itemset.Item(i), node: r}
	}
	classes := []eqClass{{atoms: atoms}}
	for memberSize := 2; memberSize <= f.depth; memberSize++ {
		var err error
		if classes, err = f.expandLevel(classes, memberSize); err != nil {
			return err
		}
	}
	return f.subtrees(classes)
}

// subtrees is the final stage: one depth-first recursion task per
// subtree. No level boundary follows it, so from here on a memory
// breach cannot wait for a degrade and stops the run.
func (f *flattenedMiner) subtrees(classes []eqClass) error {
	f.rc.EndCure()
	tasks := expansions(classes)
	startS := time.Now()
	obs.Emit(f.o, obs.Event{Type: obs.LevelStart, Level: f.depth, Phase: "eclat/subtrees",
		Candidates: len(tasks)})
	loop := f.loops.Open("eclat/subtrees", f.schedule, len(tasks), true)
	if loop.Modelled() {
		loop.Model.UniqueParent = maxClassBytes(classes)
	}
	var emitted atomic.Int64
	f.startLoop(loop)
	err := f.team.ForCtx(f.rc, loop, len(tasks), f.schedule, func(w, t int) {
		e := tasks[t]
		class := classes[e.class]
		m := f.workers[w]
		m.task = t
		before := len(m.out)
		sub := m.expandOne(classes, e)
		m.recurse(class.prefix.Extend(class.atoms[e.pos].item), sub)
		m.releaseAtoms(sub)
		emitted.Add(int64(len(m.out) - before))
	})
	f.rc.ChargeMem(-levelBytes(classes))
	if err == nil {
		obs.Emit(f.o, obs.Event{Type: obs.LevelEnd, Level: f.depth, Phase: "eclat/subtrees",
			Candidates: len(tasks), Frequent: int(emitted.Load()),
			LiveBytes: f.rc.MemUsed(), ElapsedNS: int64(time.Since(startS))})
	}
	return err
}

// levelBytes sums the payload footprint of a whole flattened level.
func levelBytes(classes []eqClass) int64 {
	var b int64
	for _, c := range classes {
		b += atomsBytes(c.atoms)
	}
	return b
}

// expandLevel runs one parallel breadth step: every task joins an atom
// with a run of its later siblings, records the frequent results
// (itemsets of size memberSize), and the tasks of one atom together
// emit its subclass for the next level. The previous level's payloads
// are released once the new level is live, and the memory-budget policy
// runs at the boundary. Level 2 is the loop eclat/pairs over the root
// class, one task per kept pair (pairTasks); every later level is
// eclat/expand<k>, one task per (class, pos).
func (f *flattenedMiner) expandLevel(classes []eqClass, memberSize int) ([]eqClass, error) {
	start := time.Now()
	phaseName, tasks := fmt.Sprintf("eclat/expand%d", memberSize), expansions(classes)
	candidates, pruned := len(tasks), 0
	if memberSize == 2 {
		n := len(classes[0].atoms)
		phaseName, candidates = "eclat/pairs", n*(n-1)/2
	}
	obs.Emit(f.o, obs.Event{Type: obs.LevelStart, Level: memberSize, Phase: phaseName,
		Candidates: candidates})
	if memberSize == 2 {
		var err error
		if tasks, pruned, err = f.pairTasks(classes[0]); err != nil {
			return nil, err
		}
	}
	loop := f.loops.Open(phaseName, f.schedule, len(tasks), true)
	if loop.Modelled() {
		loop.Model.UniqueParent = maxClassBytes(classes)
	}
	next := make([][]atom, len(tasks))
	f.startLoop(loop)
	err := f.team.ForCtx(f.rc, loop, len(tasks), f.schedule, func(w, t int) {
		// Frequent children become the next flattened level and stay
		// live past this stage, so they are never released back; only
		// the infrequent majority recycles through the arena.
		m := f.workers[w]
		m.task = t
		next[t] = m.expandOne(classes, tasks[t])
	})
	if err != nil {
		return nil, err
	}
	prevBytes := levelBytes(classes)
	var out []eqClass
	var parentOf []vertical.Node
	last := expansion{class: -1}
	for t, sub := range next {
		if len(sub) == 0 {
			continue
		}
		e := tasks[t]
		if e.class == last.class && e.pos == last.pos { // level 2: the pairs of one root
			out[len(out)-1].atoms = append(out[len(out)-1].atoms, sub...)
			continue
		}
		last = e
		class := classes[e.class]
		a := class.atoms[e.pos]
		out = append(out, eqClass{prefix: class.prefix.Extend(a.item), atoms: sub})
		parentOf = append(parentOf, a.node)
	}
	if err := f.cure(memberSize, out, parentOf); err != nil {
		return nil, err
	}
	f.rc.ChargeMem(-prevBytes)
	freq := 0
	for _, c := range out {
		freq += len(c.atoms)
	}
	obs.Emit(f.o, obs.Event{Type: obs.LevelEnd, Level: memberSize, Phase: phaseName,
		Candidates: candidates, Pruned: pruned, Frequent: freq,
		LiveBytes: f.rc.MemUsed(), ElapsedNS: int64(time.Since(start))})
	return out, nil
}

// expandOne runs task e: it joins the atom at e.pos of its class with
// the sibling run atoms[e.lo:e.hi], recording frequent results into
// m.out and returning the surviving subclass atoms. Each distinct shared
// parent is charged remotely once; the task's own atom stays local
// after the first touch.
func (m *minerState) expandOne(classes []eqClass, e expansion) []atom {
	class := classes[e.class]
	a := class.atoms[e.pos]
	return m.batchCombine(class.prefix.Extend(a.item), a.node, class.atoms[e.lo:e.hi], false)
}

// startLoop points every worker's state at loop and at the current
// representation, before the loop's tasks run.
func (f *flattenedMiner) startLoop(loop *sched.Loop) {
	for _, m := range f.workers {
		m.rep, m.loop = f.rep, loop
	}
}

// minerState is one worker's mining context for the whole run: its
// arena and output buffer, run control, and the instrumentation
// coordinates of the task it is running (task is the loop's model slot
// its modelled work is charged to).
type minerState struct {
	rep    vertical.Representation
	minSup int
	loop   *sched.Loop
	task   int
	rc     *runctl.Control
	arena  *vertical.Arena
	out    []core.ItemsetCount
	_      [64]byte // keeps the workers' states off each other's cache lines
}

// batchCombine is the class-extension loop, prefix-blocked: one
// CombineManyInto call joins base against the entire sibling run, so the
// resident base payload streams once per class instead of once per
// sibling (the remote-traffic model charges it once per class too).
// Frequent children are emitted and charged to the memory budget;
// infrequent ones go straight back to the arena. Cancellation is
// whole-class granular: the stop flag is checked before the kernel call,
// not between siblings.
//
// The gather/output slices come from the arena's NodeScratch and are
// reused across recursion depths — safe because every surviving child is
// copied into the returned subclass before the recursion descends and
// calls batchCombine again.
func (m *minerState) batchCombine(newPrefix itemset.Itemset, base vertical.Node,
	sibs []atom, local bool) []atom {
	if len(sibs) == 0 || m.rc.Stopped() {
		return nil
	}
	n := len(sibs)
	pys, out := m.arena.NodeScratch(n)
	for k, s := range sibs {
		pys[k] = s.node
	}
	m.rep.CombineManyInto(base, pys, out, m.arena)
	remoteBase := int64(base.Bytes()) // streamed once per class
	var sub []atom
	for k, s := range sibs {
		child := out[k]
		cost := int64(vertical.CombineCost(base, s.node))
		cb := int64(child.Bytes())
		if local {
			m.addLocal(cost+cb, cb)
		} else {
			m.add(cost+cb, remoteBase+int64(s.node.Bytes()), cb)
			remoteBase = 0
		}
		if child.Support() >= m.minSup {
			m.emit(newPrefix.Extend(s.item), child.Support())
			m.rc.ChargeMem(cb)
			sub = append(sub, atom{item: s.item, node: child})
		} else {
			m.arena.Release(child)
		}
	}
	return sub
}

func (m *minerState) add(work, remote, alloc int64) {
	m.loop.Add(m.task, work, remote, alloc)
}

// addLocal records recursion-internal combines, which never cross the
// interconnect: the worker that produced the parents consumes them.
func (m *minerState) addLocal(work, alloc int64) {
	m.loop.Add(m.task, work, 0, alloc)
}

// emit records one frequent itemset and accounts it against the
// itemsets budget (AddItemsets stops the run on breach; the recursion
// then unwinds at its next Stopped check).
func (m *minerState) emit(items itemset.Itemset, support int) {
	m.out = append(m.out, core.ItemsetCount{Items: items, Support: support})
	m.rc.AddItemsets(1)
}

// atomsBytes sums a class's payload footprint.
func atomsBytes(class []atom) int64 {
	var b int64
	for _, a := range class {
		b += int64(a.node.Bytes())
	}
	return b
}

// releaseAtoms returns a class's payload bytes to the memory budget and
// its nodes to the task's arena when the recursion scope ends. The
// nodes are dead here by construction: the subtree below the class is
// fully mined (combine results never alias their parents).
func (m *minerState) releaseAtoms(class []atom) {
	m.rc.ChargeMem(-atomsBytes(class))
	for _, a := range class {
		m.arena.Release(a.node)
	}
}

// recurse explores the class rooted at prefix (Algorithm 2 lines 3–11):
// for every atom, join it with every later atom of the same class; record
// the frequent joins and descend into the new class. The stop flag is
// checked at every class descent, so a cancelled or over-budget run
// unwinds without finishing the subtree.
func (m *minerState) recurse(prefix itemset.Itemset, class []atom) {
	for i := 0; i+1 < len(class); i++ {
		if m.rc.Stopped() {
			return
		}
		newPrefix := prefix.Extend(class[i].item)
		sub := m.batchCombine(newPrefix, class[i].node, class[i+1:], true)
		if len(sub) > 0 {
			m.recurse(newPrefix, sub)
		}
		m.releaseAtoms(sub)
	}
}
