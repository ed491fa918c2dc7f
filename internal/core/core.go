// Package core defines the shared vocabulary of the mining engines: the
// algorithm/configuration enumeration, run options, and the Result type
// every miner produces. The miners themselves live in internal/apriori,
// internal/eclat and internal/fpgrowth; this package is what they agree
// on, and what the public facade (package fim) re-exports.
package core

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/kcount"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sched"
	"repro/internal/vertical"
)

// Algorithm names a mining algorithm.
type Algorithm int

const (
	Apriori Algorithm = iota
	Eclat
	FPGrowth
)

func (a Algorithm) String() string {
	switch a {
	case Apriori:
		return "apriori"
	case Eclat:
		return "eclat"
	case FPGrowth:
		return "fpgrowth"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm maps a name to its Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "apriori":
		return Apriori, nil
	case "eclat":
		return Eclat, nil
	case "fpgrowth":
		return FPGrowth, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", s)
}

// Options configures a mining run.
type Options struct {
	// Representation selects the vertical layout (ignored by FP-growth).
	Representation vertical.Kind
	// Workers is the team size; 0 or 1 runs serially.
	Workers int
	// Schedule, when non-nil, overrides the algorithm's default loop
	// schedule (static for Apriori, dynamic chunk 1 for Eclat).
	Schedule *sched.Schedule
	// Observer, when non-nil, receives the run's structured event stream
	// live: level/class boundaries with candidate and frequent counts,
	// live payload bytes and degradations. A nil Observer costs the
	// miners one branch per emit site.
	Observer obs.Observer
	// Record, when non-nil, is the run's loop record: the miner opens
	// one loop per parallel loop, by name, charges its modelled bytes
	// and hands it to the team, which fills the measured half and sends
	// the record's observer one phase_end per loop (see sched.Record).
	// Nil (an unobserved, untraced run) records nothing.
	Record *sched.Record
	// Kernels, when non-nil, receives the run's kernel operation counts:
	// the miner charges its root build and coordinator-side work here
	// and sums its workers' arena shards into it once the team has
	// joined. Nil (an unobserved run) counts nothing.
	Kernels *kcount.Stats
	// Control, when non-nil, is the run-control handle: cooperative
	// cancellation and resource budgets, checked by the scheduler at
	// chunk boundaries and by the miners at level/class boundaries. A
	// stopped run returns its partial Result (Incomplete set) together
	// with the stop cause.
	Control *runctl.Control
	// EclatDepth selects Eclat's parallel decomposition: it flattens the
	// first k−1 levels breadth-first and runs one task per frequent
	// k-itemset subtree. k = 1 flattens nothing — one task per
	// first-level equivalence class, the literal outer loop of
	// Algorithm 2, whose parallelism is capped by the frequent-item
	// count. 0 uses eclat.DefaultDepth, the shallowest flattening
	// consistent with the speedups the paper reports (see the A4
	// ablation).
	EclatDepth int
}

// DefaultOptions returns the configuration the paper's experiments use:
// the given representation and worker count, the algorithm's own
// default schedule.
func DefaultOptions(rep vertical.Kind, workers int) Options {
	return Options{Representation: rep, Workers: workers}
}

// Level enumerates one level of live payloads for Cure: it calls visit
// once per node, with the node's slot and its generation parent (nil
// for a root).
type Level func(visit func(slot *vertical.Node, parent vertical.Node))

// RootLevel is the level-1 payloads, which have no parent.
func RootLevel(roots []vertical.Node) Level {
	return func(visit func(*vertical.Node, vertical.Node)) {
		for i := range roots {
			visit(&roots[i], nil)
		}
	}
}

// Cure is the memory-budget step both vertical miners take at the roots
// (level 1, before the first chunk boundary) and at every later level
// boundary, once the level's frequent payloads are charged; it returns
// the representation the run goes on with. A representation with no
// diffset form first clears runctl's cure bit. When Control.Breach says
// cure, the level is rewritten as diffsets (roots against the universe,
// other nodes against their generation parent, so sibling joins stay
// exact), the delta is charged, the bit cleared, res.Degraded set and a
// degraded event emitted at level. A cure must shrink the level: when
// the diffsets, sized from supports before any is built, would take no
// fewer bytes than the live payloads, the bit is cleared and the run
// stops with the memory budget error, as a run with no diffset form
// does.
func Cure(opt Options, res *Result, rep vertical.Representation, level int, nodes Level) (vertical.Representation, error) {
	rc := opt.Control
	if !vertical.Degradable(rep.Kind()) {
		rc.EndCure()
	}
	if cure, err := rc.Breach(); !cure {
		return rep, err
	}
	if curedBytes(nodes, res.Rec.Universe) >= levelBytes(nodes) {
		rc.EndCure()
		return rep, rc.CheckMemory()
	}
	var delta int64
	nodes(func(slot *vertical.Node, parent vertical.Node) {
		var d vertical.Node
		if parent == nil {
			d = vertical.DegradeRoot(*slot, res.Rec.Universe)
		} else {
			d = vertical.DegradeChild(parent, *slot, opt.Kernels)
		}
		delta += int64(d.Bytes()) - int64((*slot).Bytes())
		*slot = d
	})
	rc.ChargeMem(delta)
	rc.EndCure()
	res.Degraded = true
	obs.Emit(opt.Observer, obs.Event{Type: obs.Degraded, Level: level,
		Representation: vertical.Diffset.String(), LiveBytes: rc.MemUsed()})
	return vertical.New(vertical.Diffset), nil
}

// levelBytes is the live payload bytes of a level.
func levelBytes(nodes Level) int64 {
	var n int64
	nodes(func(slot *vertical.Node, _ vertical.Node) { n += int64((*slot).Bytes()) })
	return n
}

// curedBytes is the bytes Cure's diffsets of a level would take, from
// supports alone: a root stores the shorter of t(x) and D − t(x), any
// other node d(X) = t(parent) − t(X), four bytes per TID.
func curedBytes(nodes Level, universe int) int64 {
	var n int64
	nodes(func(slot *vertical.Node, parent vertical.Node) {
		if sup := (*slot).Support(); parent == nil {
			n += 4 * int64(min(sup, universe-sup))
		} else {
			n += 4 * int64(parent.Support()-sup)
		}
	})
	return n
}

// LevelTwo picks the root pairs level 2 of a vertical miner combines:
// keep[t] reports whether to combine the pair in triangle slot t
// (dataset.PairIndex), and rejected how many it drops. When countPairs
// says counting is cheaper, every pair's support is first counted from
// rec's rows (dataset.PairCounts into as many tables as countPairs
// allows, on team under opt's run control and record) and only the
// pairs reaching minSup are kept; the count's tables are charged to the
// memory budget until keep is built. Otherwise keep is nil: combine
// every pair. A stopped count returns its stop cause.
func LevelTwo(opt Options, rec *dataset.Recoded, kind vertical.Kind, roots []vertical.Node, minSup int, team *sched.Team) (keep []bool, rejected int, err error) {
	tables := countPairs(opt.Control, kind, rec, roots)
	if tables == 0 {
		return nil, 0, nil
	}
	bytes := int64(tables) * pairTableBytes(len(roots))
	opt.Control.ChargeMem(bytes)
	defer opt.Control.ChargeMem(-bytes)
	counts, err := rec.PairCounts(dataset.Pass{Team: team, Control: opt.Control, Record: opt.Record}, tables)
	if err != nil {
		return nil, 0, err
	}
	keep = make([]bool, len(counts))
	for t, k := range counts {
		if keep[t] = int(k) >= minSup; !keep[t] {
			rejected++
		}
	}
	return keep, rejected, nil
}

// The pair count's tables together hold at most pairRoom times the
// recoded rows they count plus pairSlack bytes, however wide the team
// and however many the items. The room is a few times the rows so that
// one table still fits where the items are many but their pairs sparse
// (T40I10D100K at 0.5% support: a 2 MB table over 0.8 MB of rows).
const (
	pairRoom  = 4
	pairSlack = 1 << 18
)

// pairTableBytes is the size of one pair-count table over n items.
func pairTableBytes(n int) int64 { return 4 * int64(dataset.PairSlots(n)) }

// countPairs is the level-2 cost rule, read off the first pass. It
// returns how many tables to count the pairs into, 0 to combine every
// pair instead. The tables are one per first-pass chunk, fewer when
// that many would hold more than pairRoom times the recoded rows plus
// pairSlack, or more than the memory budget leaves beside the live
// roots; with room for none, the run combines. It counts when the count's increments
// and tables, 4·ΣPairs + 4·tables·n(n−1)/2 bytes, are fewer than the
// bytes that combining every pair reads, the sum of
// vertical.CombineCost over all pairs, (n−1)·Σ roots' bytes. Nodeset
// roots never count: their PPC encoding carries a pair matrix already.
func countPairs(rc *runctl.Control, kind vertical.Kind, rec *dataset.Recoded, roots []vertical.Node) int {
	n := len(roots)
	if kind == vertical.Nodeset || n < 2 {
		return 0
	}
	chunks := rec.Chunks()
	var rows, increments int64
	for _, fi := range rec.Items {
		rows += 4 * int64(fi.Support)
	}
	for _, ch := range chunks {
		increments += 4 * int64(ch.Pairs)
	}
	room := pairRoom*rows + pairSlack
	if budget := rc.MaxMemory(); budget > 0 {
		room = min(room, budget-rc.MemUsed())
	}
	table := pairTableBytes(n)
	tables := int(min(int64(len(chunks)), max(0, room/table)))
	if tables == 0 || increments+int64(tables)*table >= int64(n-1)*vertical.NodesBytes(roots) {
		return 0
	}
	return tables
}

// ItemsetCount pairs an itemset with its support.
type ItemsetCount struct {
	Items   itemset.Itemset
	Support int
}

// Result is the output of a mining run. Itemsets are in the dense item
// space of Rec; Decode maps them back to original item codes.
type Result struct {
	// Algorithm and Representation identify the configuration that ran.
	Algorithm      Algorithm
	Representation vertical.Kind
	// MinSup is the absolute support threshold used.
	MinSup int
	// Counts holds every frequent itemset with its support, in dense
	// item codes. Order is unspecified (parallel runs vary); use Sorted
	// for a canonical view.
	Counts []ItemsetCount
	// Rec is the recoded database the run mined.
	Rec *dataset.Recoded
	// MaxK is the size of the largest frequent itemset found.
	MaxK int
	// Incomplete is true when the run stopped before exhausting the
	// search space (cancellation, deadline, budget breach, or contained
	// worker panic). Counts then holds only the itemsets — with correct
	// supports — committed before the stop; StopCause says why.
	Incomplete bool
	// StopCause is the error that ended an incomplete run (nil when the
	// run finished). It matches the error the miner returned.
	StopCause error
	// Degraded is true when the run crossed its memory budget and
	// switched the live payloads to diffsets mid-run (Cure, under
	// runctl.Budget.DegradeToDiffset) instead of stopping.
	// Representation still names the representation the run started
	// with.
	Degraded bool
}

// Len returns the number of frequent itemsets (all sizes, including 1).
func (r *Result) Len() int { return len(r.Counts) }

// Sorted returns the itemsets in canonical lexicographic order,
// independent of the schedule that produced them.
func (r *Result) Sorted() []ItemsetCount {
	out := make([]ItemsetCount, len(r.Counts))
	copy(out, r.Counts)
	slices.SortFunc(out, func(a, b ItemsetCount) int { return a.Items.Compare(b.Items) })
	return out
}

// Decoded returns the itemsets mapped back to original item codes, in
// canonical order of the original codes (dense order may differ when the
// database was recoded by frequency).
func (r *Result) Decoded() []ItemsetCount {
	out := make([]ItemsetCount, len(r.Counts))
	for i, c := range r.Counts {
		out[i] = ItemsetCount{Items: r.Rec.Decode(c.Items), Support: c.Support}
	}
	slices.SortFunc(out, func(a, b ItemsetCount) int { return a.Items.Compare(b.Items) })
	return out
}

// ByKey returns a support lookup map keyed by Itemset.Key(), for
// cross-checking results between algorithms.
func (r *Result) ByKey() map[string]int {
	m := make(map[string]int, len(r.Counts))
	for _, c := range r.Counts {
		m[c.Items.Key()] = c.Support
	}
	return m
}

// Equal reports whether two results contain exactly the same itemsets
// with the same supports (regardless of order).
func (r *Result) Equal(o *Result) bool {
	if r.Len() != o.Len() {
		return false
	}
	m := r.ByKey()
	for _, c := range o.Counts {
		if s, ok := m[c.Items.Key()]; !ok || s != c.Support {
			return false
		}
	}
	return true
}
