// Package eclat implements Algorithm 2 of the paper: depth-first
// equivalence-class frequent itemset mining over any of the three
// vertical representations, parallelized with dynamic scheduling and the
// smallest possible chunk (§IV: "we choose the chunksize to as small as
// possible. The scheduler is set to dynamic so that the load imbalance
// can be minimized").
//
// The parallel decomposition is selected by core.Options.EclatDepth:
//
//   - Depth 1 parallelizes the literal outer loop of Algorithm 2: one
//     task per first-level equivalence class (one frequent item and
//     everything joinable to its right). This is the paper's text
//     reading; its parallelism is capped by the frequent-item count,
//     a limit the paper itself notes ("poses a limit on the possible
//     number of threads").
//   - Depth k ≥ 2 flattens the first k−1 levels breadth-first (each
//     expansion stays class-local and runs as its own task), then runs
//     one depth-first recursion task per frequent k-itemset subtree.
//     Each extra level multiplies the task count and divides the
//     largest task. The default is DefaultDepth (4), the shallowest
//     flattening whose task counts and balance support the speedups the
//     paper reports on datasets with fewer frequent items than threads.
//
// In both forms, a worker that claims a subtree materializes every
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
	"repro/internal/kcount"
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
// and per class (recursion). On a breach, a tidset/bitvector run with
// DegradeToDiffset set rewrites the newest flattened level as diffsets
// relative to each atom's parent and continues; otherwise the run stops
// with a *runctl.BudgetError. A stopped run returns the partial Result
// (Incomplete set, all emitted supports exact) with the stop cause.
func Mine(rec *dataset.Recoded, minSup int, opt core.Options) (*core.Result, error) {
	if minSup < 1 {
		minSup = 1
	}
	rep := vertical.New(opt.Representation)
	schedule := DefaultSchedule
	if opt.HasSchedule {
		schedule = opt.Schedule
	}
	team := sched.NewTeam(opt.Workers)
	rc := opt.Control
	o := opt.Observer

	res := &core.Result{
		Algorithm:      core.Eclat,
		Representation: opt.Representation,
		MinSup:         minSup,
		Rec:            rec,
	}

	roots := rep.Roots(rec)
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
	finish := func(err error) (*core.Result, error) {
		if err != nil {
			res.Incomplete = true
			res.StopCause = err
		}
		return res, err
	}
	if n < 2 {
		return finish(rc.AddItemsets(n))
	}

	rc.ChargeMem(vertical.NodesBytes(roots))
	if err := rc.AddItemsets(n); err != nil {
		return finish(err)
	}
	if rc.OverMemory() && rc.Budget().DegradeToDiffset && vertical.Degradable(rep.Kind()) {
		before := vertical.NodesBytes(roots)
		for i, r := range roots {
			roots[i] = vertical.DegradeRoot(r, rec.Universe)
		}
		rc.ChargeMem(vertical.NodesBytes(roots) - before)
		rep = vertical.New(vertical.Diffset)
		res.Degraded = true
		obs.Emit(o, obs.Event{Type: obs.Degraded, Level: 1,
			Representation: vertical.Diffset.String(), LiveBytes: rc.MemUsed()})
	}
	if err := rc.Err(); err != nil {
		return finish(err)
	}

	var rootBytes int64
	for _, r := range roots {
		rootBytes += int64(r.Bytes())
	}

	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	private := make([][]core.ItemsetCount, workers)
	arenas := make([]*vertical.Arena, workers)
	for i := range arenas {
		arenas[i] = vertical.NewArena()
	}

	depth := opt.EclatDepth
	if depth == 0 {
		depth = DefaultDepth
	}
	var err error
	if depth == 1 {
		err = mineDepth1(rep, roots, rootBytes, minSup, team, schedule, opt.Record, rc, o, private, arenas)
	} else {
		m := &flattenedMiner{rep: rep, minSup: minSup, depth: depth,
			team: team, schedule: schedule, loops: opt.Record, rc: rc, o: o, res: res,
			kc: opt.Kernels, private: private, arenas: arenas}
		err = m.run(roots, rootBytes)
	}
	// The team has joined: sum the workers' kernel counts.
	for _, a := range arenas {
		opt.Kernels.Merge(&a.Kernels)
	}

	for _, p := range private {
		for _, c := range p {
			res.Counts = append(res.Counts, c)
			if len(c.Items) > res.MaxK {
				res.MaxK = len(c.Items)
			}
		}
	}
	return finish(err)
}

// mineDepth1 runs the paper-literal decomposition: one task per
// first-level class.
func mineDepth1(rep vertical.Representation, roots []vertical.Node, rootBytes int64,
	minSup int, team *sched.Team, schedule sched.Schedule, loops *sched.Record,
	rc *runctl.Control, o obs.Observer,
	private [][]core.ItemsetCount, arenas []*vertical.Arena) error {

	n := len(roots)
	start := time.Now()
	obs.Emit(o, obs.Event{Type: obs.LevelStart, Phase: "eclat/classes", Candidates: n})
	loop := loops.Open("eclat/classes", schedule, n, true)
	if loop.Modelled() {
		loop.Model.UniqueParent = rootBytes
	}
	// Shared read-only atom view of the roots, so class i gets the
	// sibling run roots[i+1:] without per-task copies.
	rootAtoms := make([]atom, n)
	for j := range roots {
		rootAtoms[j] = atom{item: itemset.Item(j), node: roots[j]}
	}
	cc := &classCtx{rep: rep, minSup: minSup, loop: loop, rc: rc,
		arenas: arenas, private: private}
	err := team.ForCtx(rc, loop, n, schedule, func(w, i int) {
		m := cc.newMiner(w, i)
		// The first-level combines read globally shared root data; the
		// recursion below reads only worker-local payloads.
		prefix := itemset.New(itemset.Item(i))
		class := m.batchCombine(prefix, roots[i], rootAtoms[i+1:], false)
		m.recurse(prefix, class)
		m.releaseAtoms(class)
		cc.finishMiner(w, m)
	})
	if err == nil {
		obs.Emit(o, obs.Event{Type: obs.LevelEnd, Phase: "eclat/classes",
			Candidates: n, Frequent: int(cc.emitted.Load()),
			LiveBytes: rc.MemUsed(), ElapsedNS: int64(time.Since(start))})
	}
	return err
}

// eqClass is one equivalence class of the flattened search: a shared
// prefix and the payload-carrying atoms that extend it. Its members are
// itemsets of size len(prefix)+1.
type eqClass struct {
	prefix itemset.Itemset
	atoms  []atom
}

// expansion is one (class, atom-position) work unit.
type expansion struct {
	class int32
	pos   int32
}

// expansions enumerates every (class, pos) pair with at least one later
// sibling to join (the last atom of a class roots an empty subtree).
func expansions(classes []eqClass) []expansion {
	var out []expansion
	for c := range classes {
		for pos := 0; pos+1 < len(classes[c].atoms); pos++ {
			out = append(out, expansion{class: int32(c), pos: int32(pos)})
		}
	}
	return out
}

// maxClassBytes returns the largest per-class payload footprint — the
// working set one expansion task reads. This stays class-local however
// large the whole level is: Eclat's locality advantage over Apriori.
func maxClassBytes(classes []eqClass) int64 {
	var mx int64
	for _, c := range classes {
		var b int64
		for _, a := range c.atoms {
			b += int64(a.node.Bytes())
		}
		if b > mx {
			mx = b
		}
	}
	return mx
}

// flattenedMiner carries the state of one flattened Eclat run: the
// (possibly degrading) representation, run control, and output sinks.
type flattenedMiner struct {
	rep      vertical.Representation
	minSup   int
	depth    int
	team     *sched.Team
	schedule sched.Schedule
	loops    *sched.Record
	rc       *runctl.Control
	o        obs.Observer
	res      *core.Result
	kc       *kcount.Stats // coordinator-side kernel counts (degrade)
	private  [][]core.ItemsetCount
	arenas   []*vertical.Arena
}

// degradeClasses rewrites every atom of the freshly built classes as a
// diffset relative to its parent node (parentOf indexes the task that
// produced the class) and switches the representation for the remaining
// stages — the memory-budget cure, applied at a level boundary where
// every class is homogeneous.
func (f *flattenedMiner) degradeClasses(classes []eqClass, parentOf func(c int) vertical.Node) {
	var before, after int64
	for ci := range classes {
		parent := parentOf(ci)
		for ai, a := range classes[ci].atoms {
			before += int64(a.node.Bytes())
			d := vertical.DegradeChild(parent, a.node, f.kc)
			classes[ci].atoms[ai].node = d
			after += int64(d.Bytes())
		}
	}
	f.rc.ChargeMem(after - before)
	f.rep = vertical.New(vertical.Diffset)
	f.res.Degraded = true
	obs.Emit(f.o, obs.Event{Type: obs.Degraded,
		Representation: vertical.Diffset.String(), LiveBytes: f.rc.MemUsed()})
}

// maybeDegrade applies the memory-budget policy at a level boundary:
// degrade when allowed, otherwise stop the run on a breach.
func (f *flattenedMiner) maybeDegrade(classes []eqClass, parentOf func(c int) vertical.Node) error {
	if !f.rc.OverMemory() {
		return nil
	}
	if f.rc.Budget().DegradeToDiffset && !f.res.Degraded && vertical.Degradable(f.rep.Kind()) {
		f.degradeClasses(classes, parentOf)
		return nil
	}
	return f.rc.CheckMemory()
}

// run expands the search breadth-first (class-local, parallel) down to
// itemsets of size `depth`, then runs one depth-first recursion task per
// size-`depth` subtree. Depth 2 parallelizes over frequent 2-itemset
// subtrees; each extra level multiplies the task count and divides the
// largest task, at the cost of materializing one more level of shared
// intermediate payloads.
func (f *flattenedMiner) run(roots []vertical.Node, rootBytes int64) error {
	n := len(roots)
	// Stage A: every pair combine is one (perfectly balanced) task.
	nPairs := n * (n - 1) / 2
	pi := make([]int32, nPairs)
	pj := make([]int32, nPairs)
	p := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pi[p], pj[p] = int32(i), int32(j)
			p++
		}
	}
	startA := time.Now()
	obs.Emit(f.o, obs.Event{Type: obs.LevelStart, Level: 2, Phase: "eclat/pairs",
		Candidates: nPairs})
	loopA := f.loops.Open("eclat/pairs", f.schedule, nPairs, true)
	if loopA.Modelled() {
		loopA.Model.UniqueParent = rootBytes
	}
	rep := f.rep
	pairNodes := make([]vertical.Node, nPairs)
	err := f.team.ForCtx(f.rc, loopA, nPairs, f.schedule, func(w, t int) {
		i, j := pi[t], pj[t]
		child := rep.CombineInto(f.arenas[w], roots[i], roots[j])
		cost := int64(vertical.CombineCost(roots[i], roots[j]))
		loopA.Add(t, cost+int64(child.Bytes()), cost, int64(child.Bytes()))
		if child.Support() >= f.minSup {
			pairNodes[t] = child
			f.rc.ChargeMem(int64(child.Bytes()))
			f.private[w] = append(f.private[w], core.ItemsetCount{
				Items:   itemset.New(itemset.Item(i), itemset.Item(j)),
				Support: child.Support(),
			})
		} else {
			f.arenas[w].Release(child)
		}
	})
	if err != nil {
		return err
	}
	var nFreqPairs int
	for _, nd := range pairNodes {
		if nd != nil {
			nFreqPairs++
		}
	}
	if err := f.rc.AddItemsets(nFreqPairs); err != nil {
		return err
	}
	obs.Emit(f.o, obs.Event{Type: obs.LevelEnd, Level: 2, Phase: "eclat/pairs",
		Candidates: nPairs, Frequent: nFreqPairs,
		LiveBytes: f.rc.MemUsed(), ElapsedNS: int64(time.Since(startA))})

	// Group the frequent pairs into classes, prefix {i}, atoms ascending.
	byPrefix := make([][]atom, n)
	for t := 0; t < nPairs; t++ {
		if pairNodes[t] != nil {
			byPrefix[pi[t]] = append(byPrefix[pi[t]], atom{item: itemset.Item(pj[t]), node: pairNodes[t]})
		}
	}
	var classes []eqClass
	classParent := make([]vertical.Node, 0, n) // pair classes: parent is the prefix root
	for i := 0; i < n; i++ {
		if len(byPrefix[i]) > 0 {
			classes = append(classes, eqClass{prefix: itemset.New(itemset.Item(i)), atoms: byPrefix[i]})
			classParent = append(classParent, roots[i])
		}
	}
	if err := f.maybeDegrade(classes, func(c int) vertical.Node { return classParent[c] }); err != nil {
		return err
	}
	f.rc.ChargeMem(-rootBytes) // the roots retire once the pair level is live

	// Intermediate expansions: materialize one more level per step,
	// until the class members reach the subtree-root size.
	for memberSize := 2; memberSize < f.depth; memberSize++ {
		classes, err = f.expandLevel(classes, memberSize+1)
		if err != nil {
			return err
		}
	}

	// Final stage: one depth-first recursion task per subtree.
	tasks := expansions(classes)
	startS := time.Now()
	obs.Emit(f.o, obs.Event{Type: obs.LevelStart, Level: f.depth, Phase: "eclat/subtrees",
		Candidates: len(tasks)})
	loop := f.loops.Open("eclat/subtrees", f.schedule, len(tasks), true)
	if loop.Modelled() {
		loop.Model.UniqueParent = maxClassBytes(classes)
	}
	rep = f.rep
	cc := &classCtx{rep: rep, minSup: f.minSup, loop: loop,
		rc: f.rc, arenas: f.arenas, private: f.private}
	err = f.team.ForCtx(f.rc, loop, len(tasks), f.schedule, func(w, t int) {
		e := tasks[t]
		class := classes[e.class]
		m := cc.newMiner(w, t)
		sub := m.expandOne(class, int(e.pos))
		m.recurse(class.prefix.Extend(class.atoms[e.pos].item), sub)
		m.releaseAtoms(sub)
		cc.finishMiner(w, m)
	})
	f.rc.ChargeMem(-levelBytes(classes))
	if err == nil {
		obs.Emit(f.o, obs.Event{Type: obs.LevelEnd, Level: f.depth, Phase: "eclat/subtrees",
			Candidates: len(tasks), Frequent: int(cc.emitted.Load()),
			LiveBytes: f.rc.MemUsed(), ElapsedNS: int64(time.Since(startS))})
	}
	return err
}

// levelBytes sums the payload footprint of a whole flattened level.
func levelBytes(classes []eqClass) int64 {
	var b int64
	for _, c := range classes {
		for _, a := range c.atoms {
			b += int64(a.node.Bytes())
		}
	}
	return b
}

// expandLevel runs one parallel breadth step: every (class, pos) task
// joins its atom with the later siblings, records the frequent results
// (itemsets of size memberSize), and emits the subclass for the next
// level. The previous level's payloads are released once the new level
// is live, and the memory-budget policy runs at the boundary.
func (f *flattenedMiner) expandLevel(classes []eqClass, memberSize int) ([]eqClass, error) {
	tasks := expansions(classes)
	start := time.Now()
	phaseName := fmt.Sprintf("eclat/expand%d", memberSize)
	obs.Emit(f.o, obs.Event{Type: obs.LevelStart, Level: memberSize, Phase: phaseName,
		Candidates: len(tasks)})
	loop := f.loops.Open(phaseName, f.schedule, len(tasks), true)
	if loop.Modelled() {
		loop.Model.UniqueParent = maxClassBytes(classes)
	}
	rep := f.rep
	next := make([]eqClass, len(tasks))
	err := f.team.ForCtx(f.rc, loop, len(tasks), f.schedule, func(w, t int) {
		e := tasks[t]
		class := classes[e.class]
		// Frequent children become the next flattened level and stay
		// live past this stage, so they are never released back; only
		// the infrequent majority recycles through the arena.
		m := &minerState{rep: rep, minSup: f.minSup, loop: loop,
			task: t, rc: f.rc, arena: f.arenas[w]}
		sub := m.expandOne(class, int(e.pos))
		if len(sub) > 0 {
			next[t] = eqClass{prefix: class.prefix.Extend(class.atoms[e.pos].item), atoms: sub}
		}
		f.private[w] = append(f.private[w], m.out...)
	})
	if err != nil {
		return nil, err
	}
	prevBytes := levelBytes(classes)
	out := make([]eqClass, 0, len(next))
	parentOf := make([]vertical.Node, 0, len(next))
	for t, c := range next {
		if len(c.atoms) > 0 {
			out = append(out, c)
			e := tasks[t]
			parentOf = append(parentOf, classes[e.class].atoms[e.pos].node)
		}
	}
	if err := f.maybeDegrade(out, func(c int) vertical.Node { return parentOf[c] }); err != nil {
		return nil, err
	}
	f.rc.ChargeMem(-prevBytes)
	freq := 0
	for _, c := range out {
		freq += len(c.atoms)
	}
	obs.Emit(f.o, obs.Event{Type: obs.LevelEnd, Level: memberSize, Phase: phaseName,
		Candidates: len(tasks), Frequent: freq,
		LiveBytes: f.rc.MemUsed(), ElapsedNS: int64(time.Since(start))})
	return out, nil
}

// expandOne joins class.atoms[pos] with every later sibling, recording
// frequent results into m.out and returning the surviving subclass atoms.
// Each distinct shared parent is charged remotely once; the task's own
// atom stays local after the first touch.
func (m *minerState) expandOne(class eqClass, pos int) []atom {
	a := class.atoms[pos]
	return m.batchCombine(class.prefix.Extend(a.item), a.node, class.atoms[pos+1:], false)
}

// classCtx carries the per-stage state shared by every recursion task
// of one parallel mining stage.
type classCtx struct {
	rep     vertical.Representation
	minSup  int
	loop    *sched.Loop
	rc      *runctl.Control
	arenas  []*vertical.Arena
	private [][]core.ItemsetCount
	emitted atomic.Int64
}

// newMiner equips a task running on worker w with that worker's arena.
// task is the loop's model slot the task's modelled work is charged to.
func (cc *classCtx) newMiner(w, task int) *minerState {
	return &minerState{rep: cc.rep, minSup: cc.minSup,
		loop: cc.loop, task: task, rc: cc.rc, arena: cc.arenas[w]}
}

// finishMiner publishes a completed task's results into the stage
// totals and worker w's private output.
func (cc *classCtx) finishMiner(w int, m *minerState) {
	cc.emitted.Add(int64(len(m.out)))
	cc.private[w] = append(cc.private[w], m.out...)
}

// minerState carries one task's recursion context: its output buffer,
// run control, and instrumentation coordinates.
type minerState struct {
	rep    vertical.Representation
	minSup int
	loop   *sched.Loop
	task   int
	rc     *runctl.Control
	arena  *vertical.Arena
	out    []core.ItemsetCount
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
