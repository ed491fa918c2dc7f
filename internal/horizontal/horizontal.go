// Package horizontal implements Apriori with the traditional horizontal
// support counting that §II-B and §III of the paper use as their foil:
// transactions are scanned generation after generation, and every
// candidate's counter is incremented whenever it is contained in a
// transaction.
//
// The paper makes two claims about this baseline that the package
// reproduces:
//
//   - "Vertical representation generally offers one order of magnitude
//     of performance gain since they reduce the volume of I/O operations
//     and avoid repetitive database scanning" (§II-B) — benchmarked as
//     ablation A5 against internal/apriori.
//   - With transaction-parallel counting, "if multiple [threads] try to
//     increment the support counter for a candidate, race condition is
//     inevitable. In this case, the program needs to use locks, atomic or
//     critical pragma to protect the data" (§III). Both protection
//     strategies are implemented: Atomic (shared counters, contended) and
//     Partial (per-worker counter arrays merged after the loop — the
//     reduction idiom).
package horizontal

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/sched"
	"repro/internal/trie"
)

// Counting selects how parallel workers protect the shared candidate
// counters.
type Counting int

const (
	// Partial gives each worker a private counter array, merged after
	// the parallel loop — no synchronization in the hot path.
	Partial Counting = iota
	// Atomic shares one counter array, incremented atomically — the
	// paper's "locks, atomic or critical pragma" case.
	Atomic
)

func (c Counting) String() string {
	switch c {
	case Partial:
		return "partial"
	case Atomic:
		return "atomic"
	}
	return fmt.Sprintf("Counting(%d)", int(c))
}

// Mine runs horizontal Apriori. The candidate machinery (trie of level
// tables, generation, pruning) is shared with the vertical miner; only
// support counting differs — it re-scans the transaction database every
// generation.
func Mine(rec *dataset.Recoded, minSup int, workers int, counting Counting, loops *sched.Record) *core.Result {
	if minSup < 1 {
		minSup = 1
	}
	team := sched.NewTeam(workers)
	schedule := sched.Schedule{Policy: sched.Static}

	res := &core.Result{
		Algorithm: core.Apriori,
		MinSup:    minSup,
		Rec:       rec,
	}

	tr := trie.NewRoot(rec.Items)
	transactions := rec.DB.Transactions
	nTrans := len(transactions)

	for gen := 1; tr.Levels[len(tr.Levels)-1].Len() != 0; gen++ {
		cands := tr.Generate()
		tr.Prune(cands, team, nil, schedule, nil) // no control: cannot stop
		n := cands.Len()
		if n == 0 {
			break
		}
		// Materialize candidate itemsets once per generation.
		sets := make([]itemset.Itemset, n)
		for i := 0; i < n; i++ {
			sets[i] = tr.ItemsetOf(cands.K-1, cands.Parents[i]).Extend(cands.Items[i])
		}

		loop := loops.Open(fmt.Sprintf("horizontal/gen%d", gen+1), schedule, nTrans, true)
		// The working set every task scans is the whole candidate list —
		// shared machine-wide, like vertical Apriori's parent pools.
		if loop.Modelled() {
			loop.Model.UniqueParent = int64(n) * int64(cands.Level.K) * 4
		}

		// Transaction-parallel counting.
		switch counting {
		case Atomic:
			counters := make([]int64, n)
			team.For(nTrans, schedule, func(_, t int) {
				tx := transactions[t]
				var work int64
				for c := 0; c < n; c++ {
					work += int64(4 * (len(sets[c]) + 1))
					if sets[c].IsSubsetOf(tx) {
						atomic.AddInt64(&counters[c], 1)
						// Shared-counter increments bounce cache lines
						// between blades: charged as remote traffic.
						loop.Add(t, 64, 64, 0)
					}
				}
				loop.Add(t, work, 0, 0)
			})
			for c := 0; c < n; c++ {
				cands.Level.Supports[c] = int(counters[c])
			}
		case Partial:
			w := team.Workers()
			partial := make([][]int, w)
			for i := range partial {
				partial[i] = make([]int, n)
			}
			team.For(nTrans, schedule, func(worker, t int) {
				tx := transactions[t]
				mine := partial[worker]
				var work int64
				for c := 0; c < n; c++ {
					work += int64(4 * (len(sets[c]) + 1))
					if sets[c].IsSubsetOf(tx) {
						mine[c]++
					}
				}
				loop.Add(t, work, 0, 0)
			})
			for c := 0; c < n; c++ {
				total := 0
				for _, p := range partial {
					total += p[c]
				}
				cands.Level.Supports[c] = total
			}
		default:
			panic(fmt.Sprintf("horizontal: unknown counting mode %v", counting))
		}
		loop.AddSerial(int64(n) * 16)

		tr.Commit(cands, minSup)
	}

	res.Counts, res.MaxK = tr.Counts()
	return res
}
