// Package fpgrowth implements the FP-growth algorithm, the third of the
// "three popular algorithms for frequent itemset mining" the paper's
// introduction surveys (Apriori, Eclat, FP-growth). It serves as an
// independent baseline: a pattern-growth miner with no candidate
// generation at all, against which the vertical miners are cross-checked
// and benchmarked.
//
// The implementation is the classic Han/Pei/Yin design: an FP-tree
// (prefix tree of transactions with items in descending dense-code
// order, with per-item header chains), mined by recursively building
// conditional pattern bases and conditional trees. fim.Mine codes items
// by ascending support, so that is the classic descending-frequency
// order; any fixed order mines the same itemsets. The tree structure
// itself lives in package nodeset — the PPC-tree of the DiffNodeset
// representation is the same prefix tree in the same order — and is
// shared through nodeset.Tree. Parallelism follows the same
// pattern as the paper's Eclat: the top-level loop over header items is
// a set of independent tasks (each conditional tree is private to its
// worker), scheduled dynamically.
package fpgrowth

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/nodeset"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sched"
)

// DefaultSchedule mirrors Eclat's choice: dynamic, chunk 1 — conditional
// tree sizes are skewed.
var DefaultSchedule = sched.Schedule{Policy: sched.Dynamic, Chunk: 1}

// Mine runs FP-growth over the recoded database with the given absolute
// minimum support. Options.Workers parallelizes the top-level header
// loop; Representation is recorded but unused (FP-growth is horizontal).
//
// When opt.Control is set the run is cancellable and budgeted: the
// header loop drains at chunk boundaries, the recursion checks the stop
// flag per conditional tree, the global and conditional FP-trees are
// charged against the memory budget (estimated at nodeset.TreeNodeBytes per
// node — FP-growth has no diffset form, so a breach always stops with a
// *runctl.BudgetError rather than degrading), and emitted itemsets are
// counted against MaxItemsets.
func Mine(rec *dataset.Recoded, minSup int, opt core.Options) (*core.Result, error) {
	if minSup < 1 {
		minSup = 1
	}
	rc := opt.Control
	rc.EndCure() // an FP-tree has no diffset form
	res := &core.Result{
		Algorithm:      core.FPGrowth,
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

	n := len(rec.Items)
	if n == 0 {
		return finish(nil)
	}

	// Build the global tree serially, each row inserted in descending
	// code order: under fim.Mine's ascending-support codes that is the
	// classic descending-frequency FP-tree order, and a recoded row is
	// ascending, so walking it backwards needs no sort. The stop flag is
	// polled every insertStride transactions so a cancelled run does not
	// first pay for the whole tree.
	const insertStride = 1024
	t := nodeset.NewTreeSized(n)
	buf := make([]int32, 0, 64)
	for tid, tr := range rec.DB.Transactions {
		if tid%insertStride == 0 && rc.Stopped() {
			return finish(rc.Cause())
		}
		buf = buf[:0]
		for i := len(tr) - 1; i >= 0; i-- {
			buf = append(buf, int32(tr[i]))
		}
		t.Insert(buf, 1)
	}
	rc.ChargeMem(t.Bytes())
	if err := rc.Err(); err != nil {
		return finish(err)
	}

	schedule := DefaultSchedule
	if opt.Schedule != nil {
		schedule = *opt.Schedule
	}
	team := sched.NewTeam(opt.Workers)
	workers := team.Workers()
	o := opt.Observer
	start := time.Now()
	obs.Emit(o, obs.Event{Type: obs.LevelStart, Phase: "fpgrowth/items", Candidates: n})
	loop := opt.Record.Open("fpgrowth/items", schedule, n, false)

	// Top-level parallel loop: one task per frequent item, growing its
	// conditional subtree privately.
	private := make([][]core.ItemsetCount, workers)
	var emitted atomic.Int64
	err := team.ForCtx(rc, loop, n, schedule, func(w, i int) {
		it := int32(i)
		m := &grower{minSup: minSup, rc: rc}
		pattern := itemset.New(itemset.Item(it))
		m.emit(pattern, rec.Items[it].Support)
		cond := t.Conditional(it)
		m.work += int64(4 * len(cond.Items()))
		if len(cond.Items()) > 0 {
			rc.ChargeMem(cond.Bytes())
			m.grow(cond, pattern)
			rc.ChargeMem(-cond.Bytes())
		}
		loop.Add(i, m.work, 0, m.work)
		emitted.Add(int64(len(m.out)))
		private[w] = append(private[w], m.out...)
	})
	if err == nil {
		obs.Emit(o, obs.Event{Type: obs.LevelEnd, Phase: "fpgrowth/items",
			Candidates: n, Frequent: int(emitted.Load()),
			LiveBytes: rc.MemUsed(), ElapsedNS: int64(time.Since(start))})
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

// grower carries one top-level task's recursion state.
type grower struct {
	minSup int
	rc     *runctl.Control
	out    []core.ItemsetCount
	work   int64
}

// emit records one frequent itemset and accounts it against the
// itemsets budget.
func (g *grower) emit(items itemset.Itemset, support int) {
	g.out = append(g.out, core.ItemsetCount{Items: items, Support: support})
	g.rc.AddItemsets(1)
}

// grow recursively mines a conditional tree under the given suffix,
// checking the stop flag per conditional tree and charging each one
// against the memory budget for its lifetime.
func (g *grower) grow(t *nodeset.Tree, suffix itemset.Itemset) {
	// Visit items in ascending code order, the reverse of the tree
	// order: deepest first.
	items := slices.Clone(t.Items())
	slices.Sort(items)
	for _, it := range items {
		if g.rc.Stopped() {
			return
		}
		support := t.Count(it)
		if support < g.minSup {
			continue
		}
		pattern := itemset.New(append(suffix.Clone(), itemset.Item(it))...)
		g.emit(pattern, support)
		cond := t.Conditional(it)
		g.work += int64(8 * len(cond.Items()))
		if len(cond.Items()) > 0 {
			g.rc.ChargeMem(cond.Bytes())
			g.rc.CheckMemory() // no degrade path; Stopped unwinds the recursion
			g.grow(cond, pattern)
			g.rc.ChargeMem(-cond.Bytes())
		}
	}
}
