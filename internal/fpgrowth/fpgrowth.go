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
// conditional pattern bases and conditional trees, each pruned to the
// items frequent in its pattern base. fim.Mine codes items by ascending
// support, so that is the classic descending-frequency order; any fixed
// order mines the same itemsets. The tree structure is nodeset.Tree.
//
// Both stages run on the mining team. The first-pass row chunks
// (dataset.Recoded.Chunks) each build an FP-tree of their own in the
// loop fpgrowth/tree, and the trees are never merged: as in the
// multiple-local-trees design of Zaïane, El-Hajj & Lu (ICDM 2001), each
// top-level task draws its item's conditional pattern base from every
// chunk tree's header chain. The top-level loop over header items
// follows the paper's Eclat: a set of independent tasks (each
// conditional tree is private to its worker), scheduled dynamically.
package fpgrowth

import (
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
// minimum support. Options.Workers sizes the team that builds the chunk
// trees and runs the top-level header loop; a team of one is the serial
// miner. Representation is recorded but unused (FP-growth is
// horizontal).
//
// When opt.Control is set the run is cancellable and budgeted: the tree
// build polls the stop flag every insertStride rows, the header loop
// drains at chunk boundaries, the recursion checks the stop flag per
// conditional tree, the chunk trees and conditional trees are charged
// against the memory budget at Tree.Bytes, slab capacity and tables
// (FP-growth has no diffset form, so a breach always stops with a
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

	team := sched.NewTeam(opt.Workers)
	trees, err := buildTrees(rec, dataset.Pass{Team: team, Control: rc, Record: opt.Record})
	if err == nil {
		err = rc.Err()
	}
	if err != nil {
		return finish(err)
	}

	schedule := DefaultSchedule
	if opt.Schedule != nil {
		schedule = *opt.Schedule
	}
	workers := team.Workers()
	o := opt.Observer
	start := time.Now()
	obs.Emit(o, obs.Event{Type: obs.LevelStart, Phase: "fpgrowth/items", Candidates: n})
	loop := opt.Record.Open("fpgrowth/items", schedule, n, false)

	// Top-level parallel loop: one task per frequent item, growing its
	// conditional subtree privately.
	private := make([][]core.ItemsetCount, workers)
	var emitted atomic.Int64
	err = team.ForCtx(rc, loop, n, schedule, func(w, i int) {
		it := int32(i)
		m := &grower{minSup: minSup, rc: rc}
		pattern := itemset.Itemset{itemset.Item(it)}
		m.emit(pattern, rec.Items[it].Support)
		cond := nodeset.ConditionalOf(trees, it, minSup)
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

// treeLoop names the chunk-tree build's loop in the run's record.
const treeLoop = "fpgrowth/tree"

// insertStride is how many rows a chunk inserts between polls of the
// stop flag, so a cancelled run does not first pay for its whole tree.
const insertStride = 1024

// buildTrees builds one FP-tree per first-pass chunk and charges each
// to the memory budget as its chunk finishes.
func buildTrees(rec *dataset.Recoded, p dataset.Pass) ([]*nodeset.Tree, error) {
	chunks := rec.Chunks()
	trees := make([]*nodeset.Tree, len(chunks))
	err := p.For(treeLoop, chunks, func(c int) (int, int) {
		t, occurrences := chunkTree(rec, chunks[c], p.Control)
		trees[c] = t
		p.Control.ChargeMem(t.Bytes())
		return 4 * occurrences, int(t.Bytes())
	})
	if err != nil {
		return nil, err
	}
	return trees, nil
}

// chunkTree builds the FP-tree of one chunk's rows and counts the item
// occurrences it inserted. Each row goes in in descending code order:
// under fim.Mine's ascending-support codes that is the classic
// descending-frequency FP-tree order, and a recoded row is ascending,
// so walking it backwards needs no sort. A stopped run leaves the tree
// partial.
func chunkTree(rec *dataset.Recoded, ch dataset.Chunk, rc *runctl.Control) (*nodeset.Tree, int) {
	rows := rec.DB.Transactions
	t := nodeset.NewTreeSized(len(rec.Items))
	buf := make([]int32, 0, 64)
	occurrences := 0
	for tid := ch.Lo; tid < ch.Hi; tid++ {
		if (tid-ch.Lo)%insertStride == 0 && rc.Stopped() {
			break
		}
		row := rows[tid]
		buf = buf[:0]
		for i := len(row) - 1; i >= 0; i-- {
			buf = append(buf, int32(row[i]))
		}
		t.Insert(buf, 1)
		occurrences += len(row)
	}
	t.Trim() // the chunk trees live through the whole header loop
	return t, occurrences
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
	// Every item of t is frequent and above the suffix's items, so the
	// pattern is the suffix with one item appended, in its own storage.
	// Items come in ascending code order, the reverse of the tree order:
	// deepest first.
	base := []*nodeset.Tree{t}
	for _, it := range t.Items() {
		if g.rc.Stopped() {
			return
		}
		pattern := append(suffix[:len(suffix):len(suffix)], itemset.Item(it))
		g.emit(pattern, t.Count(it))
		cond := nodeset.ConditionalOf(base, it, g.minSup)
		g.work += int64(8 * len(cond.Items()))
		if len(cond.Items()) > 0 {
			g.rc.ChargeMem(cond.Bytes())
			g.rc.CheckMemory() // no degrade path; Stopped unwinds the recursion
			g.grow(cond, pattern)
			g.rc.ChargeMem(-cond.Bytes())
		}
	}
}
