// Package dataset implements the horizontal transaction database: the raw
// input of frequent itemset mining, as read from FIMI-repository-format
// files (one transaction per line, space-separated integer items).
//
// The package also provides the first mining pass that every algorithm in
// the paper shares: counting 1-item supports, selecting frequent items,
// and recoding the database onto a dense item space so the vertical
// representations (package vertical) can index by item. The pass runs
// over row chunks on a worker team (Pass, RecodeOn), and its chunks and
// their per-item counts stay on the Recoded so the vertical root builds
// can split the same rows the same way.
package dataset

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/itemset"
	"repro/internal/runctl"
	"repro/internal/sched"
	"repro/internal/tidset"
)

// Transaction is one basket: a sorted set of items.
type Transaction = itemset.Itemset

// DB is a horizontal transaction database.
type DB struct {
	// Name identifies the dataset in reports (e.g. "chess").
	Name string
	// Transactions holds the baskets in file order; the index of a
	// transaction is its TID.
	Transactions []Transaction
}

// NumTransactions returns |D|.
func (d *DB) NumTransactions() int { return len(d.Transactions) }

// AbsoluteSupport converts a relative support threshold (fraction of
// transactions, e.g. 0.2 for "chess@0.2") into an absolute transaction
// count, rounding up so that rel*|D| is always sufficient. A relative
// threshold of 0 maps to 1: an itemset must occur at least once.
//
// A threshold that is exactly k/|D| maps to k: the product is nudged
// down by a relative epsilon before the ceiling so that the one-ulp
// error of computing k/|D| in floating point cannot push the result to
// k+1 (which would silently drop every itemset of support exactly k).
func (d *DB) AbsoluteSupport(rel float64) int {
	if rel <= 0 {
		return 1
	}
	x := rel * float64(len(d.Transactions))
	abs := int(math.Ceil(x - x*1e-12))
	if abs < 1 {
		abs = 1
	}
	return abs
}

// Stats summarizes a database the way the paper's Table I does.
type Stats struct {
	Name            string
	NumItems        int     // distinct items appearing in D
	AvgLength       float64 // average transaction length
	NumTransactions int
	SizeBytes       int // size of the FIMI text encoding
	MaxItem         itemset.Item
	Density         float64 // avg length / distinct items: 1.0 means every item in every transaction
}

// ComputeStats scans the database once and fills a Stats.
func (d *DB) ComputeStats() Stats {
	seen := make(map[itemset.Item]struct{})
	totalLen := 0
	size := 0
	var maxItem itemset.Item
	for _, tr := range d.Transactions {
		totalLen += len(tr)
		for _, it := range tr {
			seen[it] = struct{}{}
			if it > maxItem {
				maxItem = it
			}
			// digits + separator, matching the FIMI text encoding
			size += len(strconv.FormatUint(uint64(it), 10)) + 1
		}
	}
	s := Stats{
		Name:            d.Name,
		NumItems:        len(seen),
		NumTransactions: len(d.Transactions),
		SizeBytes:       size,
		MaxItem:         maxItem,
	}
	if len(d.Transactions) > 0 {
		s.AvgLength = float64(totalLen) / float64(len(d.Transactions))
	}
	if s.NumItems > 0 {
		s.Density = s.AvgLength / float64(s.NumItems)
	}
	return s
}

// ItemCounts returns the support of every item, as a map.
func (d *DB) ItemCounts() map[itemset.Item]int {
	counts := make(map[itemset.Item]int)
	for _, tr := range d.Transactions {
		for _, it := range tr {
			counts[it]++
		}
	}
	return counts
}

// FrequentItem describes one frequent item discovered by the first pass.
type FrequentItem struct {
	Original itemset.Item // item code in the raw database
	Support  int
}

// Recoded is a database restricted to its frequent items and recoded onto
// the dense item space 0..len(Items)-1, in the ItemOrder it was recoded
// under; each recoded transaction ascends by dense code. The miners
// operate on a Recoded database: its TIDs and dense item codes are what
// the vertical representations are built from.
type Recoded struct {
	DB       *DB            // filtered, recoded transactions
	Items    []FrequentItem // dense code -> original item + support
	MinSup   int            // absolute threshold used
	Universe int            // number of transactions in the original DB

	chunks []Chunk // the first pass's row chunks; nil when assembled by hand
}

// ItemOrder selects how RecodeOrdered assigns dense item codes. The
// mining result is the same set of itemsets either way (modulo
// decoding); the order changes the shape of the search tree, which the
// A9 ablation measures. fim.Mine always recodes ByFrequency.
type ItemOrder int

const (
	// ByCode preserves the original item-code order (the paper's
	// "items in the itemset are sorted according to item number"), as
	// the paper-table experiments and the A9 baseline use it.
	ByCode ItemOrder = iota
	// ByFrequency assigns codes in ascending support order, the classic
	// Eclat/FP-growth optimization: rare items first keeps equivalence
	// classes small near the root, where the fan-out is widest.
	ByFrequency
)

// Recode performs the shared first mining pass: count item supports, keep
// items with support >= minSup (absolute), sort them by original item
// code, and rewrite every transaction onto the dense code space with
// infrequent items dropped. Transactions that become empty are kept (they
// still occupy a TID) so that supports remain counts over the original
// transaction universe.
func (d *DB) Recode(minSup int) *Recoded {
	return d.RecodeOrdered(minSup, ByCode)
}

// sparseSlack is how far the count tables of all chunks together may
// outgrow the number of item occurrences before RecodeOn counts in maps
// instead: below it the tables are never larger than the input plus
// 256 KB, however wide the team.
const sparseSlack = 1 << 16

// The modelled byte sizes of the first pass's data: an item (and a
// TID) is a uint32, a row a slice header.
const (
	itemBytes = 4
	rowBytes  = 24
)

// Pass is where a first pass runs: the team its row chunks are dealt
// to, the run control it checks at every chunk boundary and the loop
// record it opens its loops in. A nil Team is a team of one; a nil
// Control or Record checks or records nothing. The zero Pass is the
// serial first pass.
type Pass struct {
	Team    *sched.Team
	Control *runctl.Control
	Record  *sched.Record
}

// passSchedule hands each worker one chunk: the rows are cut into one
// chunk per worker already.
var passSchedule = sched.Schedule{Policy: sched.Static}

// For runs body(c) for every chunk c on the pass's team, as the loop
// named name in the pass's record, and returns the stop cause when the
// pass's Control stops the loop or a worker panics (contained as a
// *runctl.WorkerPanicError); the chunks not yet started are then left
// unrun. body returns the bytes chunk c read and wrote.
//
// The measured half has one task per chunk. The modelled half has one
// task per 64-row block, each charged its chunk's bytes pro rata, so
// the machine model deals the pass to any thread count the way a team
// of that size cuts it, whatever team recorded it. A block's work is
// the bytes read and written, its allocation the bytes written; the
// pass reads no parent payloads, so it models no remote traffic.
func (p Pass) For(name string, chunks []Chunk, body func(c int) (read, written int)) error {
	blocks := func(ch Chunk) (int, int) {
		lo := ch.Lo / 64
		return lo, max(lo+1, (ch.Hi+63)/64)
	}
	_, last := blocks(chunks[len(chunks)-1])
	loop := p.Record.Open(name, passSchedule, last, false)
	return p.team().ForCtx(p.Control, loop, len(chunks), passSchedule, func(_, c int) {
		read, written := body(c)
		if !loop.Modelled() {
			return
		}
		lo, hi := blocks(chunks[c])
		n := hi - lo
		for b := lo; b < hi; b++ {
			// Block lo takes the remainders.
			r, w := read/n, written/n
			if b == lo {
				r, w = r+read%n, w+written%n
			}
			loop.Add(b, int64(r+w), 0, int64(w))
		}
	})
}

// team returns the pass's team: a team of one when Team is nil.
func (p Pass) team() *sched.Team {
	if p.Team == nil {
		return sched.NewTeam(1)
	}
	return p.Team
}

// Chunk is one row chunk of the first pass: rows [Lo, Hi), per dense
// code how many of them hold it, and Pairs, the item pairs its recoded
// rows hold, Σ C(|row|, 2): what counting the chunk's pairs costs.
type Chunk struct {
	Lo, Hi int
	Counts []int
	Pairs  int
}

// cutRows cuts rows [0, n) into at most p chunks of whole 64-row
// blocks (the last may be short). There is always at least one chunk.
func cutRows(n, p int) []Chunk {
	blocks := (n + 63) / 64
	chunks := make([]Chunk, max(1, min(p, blocks)))
	k := len(chunks)
	for c := range chunks {
		chunks[c].Lo = c * blocks / k * 64
		if c > 0 {
			chunks[c-1].Hi = chunks[c].Lo
		}
	}
	chunks[k-1].Hi = n
	return chunks
}

// Chunks returns the row chunks the first pass ran over. The root
// builds (package vertical) reuse them: from the chunks' code counts
// every chunk knows where its share of each root payload goes before
// any is written, and since every chunk but the last ends on a 64-row
// boundary, chunks own disjoint bitvector words. A Recoded assembled
// by hand reads as one chunk.
func (r *Recoded) Chunks() []Chunk {
	if r.chunks != nil {
		return r.chunks
	}
	counts := make([]int, len(r.Items))
	for code, fi := range r.Items {
		counts[code] = fi.Support
	}
	pairs := 0
	for _, tr := range r.DB.Transactions {
		pairs += pairsIn(len(tr))
	}
	return []Chunk{{Lo: 0, Hi: len(r.DB.Transactions), Counts: counts, Pairs: pairs}}
}

// pairsIn is C(k, 2), the item pairs a row of k items holds.
func pairsIn(k int) int { return k * (k - 1) / 2 }

// RecodeOrdered is Recode with an explicit dense-code order, run
// serially: RecodeOn with the zero Pass.
func (d *DB) RecodeOrdered(minSup int, order ItemOrder) *Recoded {
	rec, err := d.RecodeOn(Pass{}, minSup, order)
	if err != nil {
		// With no Control only a contained worker panic stops the pass;
		// it is raised again, as sched.Team.For does.
		panic(err)
	}
	return rec
}

// RecodeOn is the first pass on p's team. Every transaction must be
// sorted ascending, as ReadFIMI and itemset.New leave them.
//
// The rows are cut into at most one chunk per worker, on 64-row
// boundaries. In the loop dataset/count each chunk counts supports
// into a table of its own indexed by item id (or a map, when the ids
// are so sparse that one table per chunk would outgrow the input); the
// tables are merged in place once the team has joined, and they also
// give each chunk its count of every frequent item. A prefix sum of
// those counts places each chunk's recoded rows in one exactly sized
// flat array, which the loop dataset/recode fills without
// synchronization: a row is recoded by marking its frequent items'
// codes in a bitmap and emitting the set bits, so it comes out
// ascending under any code order without a per-row sort. Each recoded
// row is capped at its own end, so an append copies instead of
// overwriting its neighbour. The same loop sums each chunk's Pairs
// from the recoded rows' lengths.
//
// A pass that p's Control stops, or in which a worker panics, returns
// the stop cause and no Recoded.
func (d *DB) RecodeOn(p Pass, minSup int, order ItemOrder) (*Recoded, error) {
	if minSup < 1 {
		minSup = 1
	}
	rows := d.Transactions
	var maxItem itemset.Item
	occurrences := 0
	for _, tr := range rows {
		if n := len(tr); n > 0 {
			occurrences += n
			maxItem = max(maxItem, tr[n-1])
		}
	}
	chunks := cutRows(len(rows), p.team().Workers())
	var t tally = &denseTally{n: int(maxItem) + 1, tables: make([][]int32, len(chunks))}
	if uint64(len(chunks))*(uint64(maxItem)+1) > uint64(occurrences)+sparseSlack {
		t = &sparseTally{maps: make([]map[itemset.Item]int32, len(chunks))}
	}
	if err := p.For("dataset/count", chunks, func(c int) (int, int) {
		return t.count(c, rows[chunks[c].Lo:chunks[c].Hi])
	}); err != nil {
		return nil, err
	}
	items, counts := t.codes(minSup, order)

	// Transactions are sets, so a chunk's frequent occurrences number
	// exactly the sum of its code counts.
	starts := make([]int, len(chunks)+1)
	for c := range chunks {
		chunks[c].Counts = counts[c]
		starts[c+1] = starts[c]
		for _, n := range counts[c] {
			starts[c+1] += n
		}
	}
	flat := make([]itemset.Item, starts[len(chunks)])
	out := &DB{Name: d.Name, Transactions: make([]Transaction, len(rows))}
	if err := p.For("dataset/recode", chunks, func(c int) (int, int) {
		translate := t.translator()
		lo, hi := chunks[c].Lo, chunks[c].Hi
		s, read, pairs := starts[c], 0, 0
		for tid := lo; tid < hi; tid++ {
			read += len(rows[tid])
			k := len(translate(flat[s:s], rows[tid]))
			e := s + k
			out.Transactions[tid] = flat[s:e:e]
			s = e
			pairs += pairsIn(k)
		}
		chunks[c].Pairs = pairs
		return itemBytes * read, itemBytes*(s-starts[c]) + rowBytes*(hi-lo)
	}); err != nil {
		return nil, err
	}
	return &Recoded{DB: out, Items: items, MinSup: minSup, Universe: len(rows), chunks: chunks}, nil
}

// PairIndex is the slot of the pair of codes i < j in the upper
// triangle of n codes, row by row: i·n − i(i+1)/2 + (j − i − 1). The
// triangle has PairSlots(n) slots, in the order of the pairs (i, j)
// ascending.
func PairIndex(i, j, n int) int { return i*n - i*(i+1)/2 + j - i - 1 }

// PairSlots is n(n−1)/2, the number of pairs of n codes.
func PairSlots(n int) int { return pairsIn(n) }

// PairCounts counts the support of every pair of frequent items from
// the recoded rows, Zaki's upper-triangular count, on p's team into at
// most tables tables (at least one): the loop dataset/pairs runs over
// the recode's chunks, merged in runs of consecutive chunks when there
// are more of them than tables; each adds its rows' pairs into an upper
// triangle of its own (indexed by PairIndex), and the triangles are
// merged into the first once the team has joined. A chunk is modelled
// as its row bytes read, its 4·Pairs bytes of increments and its
// triangle's bytes written. The result has PairSlots(len(r.Items))
// entries; a stopped count returns the stop cause and no counts.
func (r *Recoded) PairCounts(p Pass, tables int) ([]uint32, error) {
	n, rows, chunks := len(r.Items), r.DB.Transactions, mergeChunks(r.Chunks(), tables)
	slots := PairSlots(n)
	// off[i] + j is the slot of (i, j).
	off := make([]int, n)
	for i := range off {
		off[i] = PairIndex(i, 0, n)
	}
	triangles := make([][]uint32, len(chunks))
	err := p.For("dataset/pairs", chunks, func(c int) (int, int) {
		table, read := make([]uint32, slots), 0
		for _, tr := range rows[chunks[c].Lo:chunks[c].Hi] {
			read += len(tr)
			for a, i := range tr {
				base := off[i]
				for _, j := range tr[a+1:] {
					table[base+int(j)]++
				}
			}
		}
		triangles[c] = table
		return itemBytes*read + 4*chunks[c].Pairs, 4 * slots
	})
	if err != nil {
		return nil, err
	}
	total := triangles[0]
	for _, table := range triangles[1:] {
		for s, k := range table {
			total[s] += k
		}
	}
	return total, nil
}

// mergeChunks merges runs of consecutive chunks into at most k chunks
// (at least one), of as even a number of chunks each as k allows,
// summing their Pairs; their Counts are dropped.
func mergeChunks(chunks []Chunk, k int) []Chunk {
	k = max(1, min(k, len(chunks)))
	if k == len(chunks) {
		return chunks
	}
	out := make([]Chunk, k)
	for g := range out {
		run := chunks[g*len(chunks)/k : (g+1)*len(chunks)/k]
		out[g] = Chunk{Lo: run[0].Lo, Hi: run[len(run)-1].Hi}
		for _, ch := range run {
			out[g].Pairs += ch.Pairs
		}
	}
	return out
}

// tally is the count half of the first pass: one support table per row
// chunk, merged into the dense-code translation.
type tally interface {
	// count tallies chunk c's rows into the chunk's own table and
	// returns the bytes it read and wrote.
	count(c int, rows []Transaction) (read, written int)
	// codes merges the chunk tables into the frequent items, in
	// dense-code order, and each chunk's count of every code.
	codes(minSup int, order ItemOrder) ([]FrequentItem, [][]int)
	// translator returns a row recoder with scratch of its own, for one
	// chunk; it is valid after codes.
	translator() func(dst []itemset.Item, tr Transaction) []itemset.Item
}

// denseTally counts in tables of n entries indexed by item id. codes
// turns the merged table into the translation: afterwards slot[id] is
// the item's slot, its code + 1, or 0 when it is infrequent.
type denseTally struct {
	n      int
	tables [][]int32
	slot   []int32
	items  int
}

func (t *denseTally) count(c int, rows []Transaction) (int, int) {
	table := make([]int32, t.n)
	read := 0
	for _, tr := range rows {
		read += len(tr)
		for _, it := range tr {
			table[it]++
		}
	}
	t.tables[c] = table
	return itemBytes * read, 4 * t.n
}

// codes merges into chunk 0's table, so the merge allocates no table of
// its own; chunk 0's counts are then the total less the other chunks'.
func (t *denseTally) codes(minSup int, order ItemOrder) ([]FrequentItem, [][]int) {
	total, rest := t.tables[0], t.tables[1:]
	for _, table := range rest {
		for it, c := range table {
			total[it] += c
		}
	}
	items := []FrequentItem{}
	for it, c := range total {
		if int(c) >= minSup {
			items = append(items, FrequentItem{Original: itemset.Item(it), Support: int(c)})
		}
	}
	orderItems(items, order)
	counts := chunkCounts(items, len(t.tables), func(c int, it itemset.Item) int32 {
		if c > 0 {
			return t.tables[c][it]
		}
		n := total[it]
		for _, table := range rest {
			n -= table[it]
		}
		return n
	})
	// total is read above already; it becomes the slot table.
	clear(total)
	for code, fi := range items {
		total[fi.Original] = int32(code) + 1
	}
	t.slot, t.tables, t.items = total, nil, len(items)
	return items, counts
}

// slotBit maps a slot to its code's bit in a one-word row bitmap, and
// slot 0 (infrequent) to no bit.
var slotBit = func() (b [65]uint64) {
	for c := range 64 {
		b[c+1] = 1 << c
	}
	return b
}()

// translator recodes through the slot table. With at most 64 frequent
// items a row's bitmap is one register word, filled without a branch.
func (t *denseTally) translator() func([]itemset.Item, Transaction) []itemset.Item {
	slot := t.slot
	if t.items <= 64 {
		return func(dst []itemset.Item, tr Transaction) []itemset.Item {
			var m uint64
			for _, it := range tr {
				m |= slotBit[slot[it]]
			}
			for ; m != 0; m &= m - 1 {
				dst = append(dst, itemset.Item(bits.TrailingZeros64(m)))
			}
			return dst
		}
	}
	row := make(rowBitmap, t.items/64+1)
	return func(dst []itemset.Item, tr Transaction) []itemset.Item {
		for _, it := range tr {
			row.mark(slot[it])
		}
		return row.flush(dst)
	}
}

// sparseTally is denseTally with maps in place of the tables, for item
// ids far sparser than the data.
type sparseTally struct {
	maps  []map[itemset.Item]int32
	slot  map[itemset.Item]int32
	items int
}

func (t *sparseTally) count(c int, rows []Transaction) (int, int) {
	m := make(map[itemset.Item]int32)
	read := 0
	for _, tr := range rows {
		read += len(tr)
		for _, it := range tr {
			m[it]++
		}
	}
	t.maps[c] = m
	return itemBytes * read, 2 * itemBytes * len(m)
}

func (t *sparseTally) codes(minSup int, order ItemOrder) ([]FrequentItem, [][]int) {
	total, rest := t.maps[0], t.maps[1:]
	for _, m := range rest {
		for it, c := range m {
			total[it] += c
		}
	}
	items := []FrequentItem{}
	for it, c := range total {
		if int(c) >= minSup {
			items = append(items, FrequentItem{Original: it, Support: int(c)})
		}
	}
	orderItems(items, order)
	counts := chunkCounts(items, len(t.maps), func(c int, it itemset.Item) int32 {
		if c > 0 {
			return t.maps[c][it]
		}
		n := total[it]
		for _, m := range rest {
			n -= m[it]
		}
		return n
	})
	t.slot = make(map[itemset.Item]int32, len(items))
	for code, fi := range items {
		t.slot[fi.Original] = int32(code) + 1
	}
	t.maps, t.items = nil, len(items)
	return items, counts
}

func (t *sparseTally) translator() func([]itemset.Item, Transaction) []itemset.Item {
	slot := t.slot
	row := make(rowBitmap, t.items/64+1)
	return func(dst []itemset.Item, tr Transaction) []itemset.Item {
		for _, it := range tr {
			row.mark(slot[it])
		}
		return row.flush(dst)
	}
}

// chunkCounts returns, per chunk, its count of every frequent item,
// read from the chunk's table by lookup.
func chunkCounts(items []FrequentItem, chunks int, lookup func(c int, it itemset.Item) int32) [][]int {
	counts := make([][]int, chunks)
	for c := range counts {
		counts[c] = make([]int, len(items))
		for code, fi := range items {
			counts[c][code] = int(lookup(c, fi.Original))
		}
	}
	return counts
}

// rowBitmap holds one row's dense codes as bits over slots 0..n, where
// slot s stands for code s-1 and slot 0 takes the row's infrequent
// items, so marking needs no branch. Emitting scans every word: a row
// costs its length plus ⌈(n+1)/64⌉ words, six for the 333 items of
// T40I10D100K at 4%.
type rowBitmap []uint64

func (b rowBitmap) mark(s int32) { b[s>>6] |= 1 << (s & 63) }

// flush appends the codes of the marked slots to dst in ascending order
// and clears the bitmap for the next row.
func (b rowBitmap) flush(dst []itemset.Item) []itemset.Item {
	b[0] &^= 1
	for w, x := range b {
		for ; x != 0; x &= x - 1 {
			dst = append(dst, itemset.Item(w<<6+bits.TrailingZeros64(x)-1))
		}
		b[w] = 0
	}
	return dst
}

// orderItems sorts items into dense-code order: ascending original id,
// or under ByFrequency ascending support with ties by original id.
func orderItems(items []FrequentItem, order ItemOrder) {
	slices.SortFunc(items, func(a, b FrequentItem) int {
		if order == ByFrequency {
			if c := cmp.Compare(a.Support, b.Support); c != 0 {
				return c
			}
		}
		return cmp.Compare(a.Original, b.Original)
	})
}

// Decode maps a dense-coded itemset back to original item codes. Under
// ByCode recoding the result is already ascending; frequency order
// permutes the codes, so it is sorted then. Codes are distinct, so the
// result needs no deduplication.
func (r *Recoded) Decode(s itemset.Itemset) itemset.Itemset {
	out := make(itemset.Itemset, len(s))
	sorted := true
	for i, c := range s {
		out[i] = r.Items[c].Original
		if i > 0 && out[i] < out[i-1] {
			sorted = false
		}
	}
	if !sorted {
		slices.Sort(out)
	}
	return out
}

// TidsetOf returns the tidset of each dense item, the inverted index,
// built serially in one sweep. The root builds of package vertical
// write the same sets chunk by chunk on a team; tests check them
// against this one.
func (r *Recoded) TidsetOf() []tidset.Set {
	sets := make([]tidset.Set, len(r.Items))
	for i := range sets {
		sets[i] = make(tidset.Set, 0, r.Items[i].Support)
	}
	for tid, tr := range r.DB.Transactions {
		for _, it := range tr {
			sets[it] = append(sets[it], tidset.TID(tid))
		}
	}
	return sets
}

// ParseError describes a malformed FIMI input — where it was found
// (1-based line number) and the offending token — or a Limits breach,
// in which case Token is empty and Msg names the exceeded limit.
// ReadFIMI returns it wrapped in nothing, so errors.As(&ParseError{})
// works directly.
type ParseError struct {
	Name  string // input name as passed to ReadFIMI
	Line  int    // 1-based line number
	Token string // the offending token, verbatim
	Msg   string // what was wrong with it
}

func (e *ParseError) Error() string {
	if e.Token == "" {
		// Limit breaches have no offending token, only a location.
		return fmt.Sprintf("dataset: %s line %d: %s", e.Name, e.Line, e.Msg)
	}
	return fmt.Sprintf("dataset: %s line %d: %s %q", e.Name, e.Line, e.Msg, e.Token)
}

// Limits bounds what ReadFIMILimits accepts from an untrusted reader,
// so a hostile or corrupt upload cannot balloon the process: a single
// enormous line, an endless stream of transactions, or a database whose
// item count alone exhausts memory all fail fast with a *ParseError
// instead of an OOM. Zero fields mean "no limit on this axis".
type Limits struct {
	// MaxLineBytes caps the byte length of one input line (one
	// transaction). Longer lines fail with a *ParseError naming the
	// line, not bufio's generic token-too-long error.
	MaxLineBytes int
	// MaxTransactions caps the number of non-empty transactions.
	MaxTransactions int
	// MaxTotalItems caps the total item occurrences across the whole
	// database (counted before per-transaction deduplication, i.e. as
	// the attacker pays for them).
	MaxTotalItems int64
}

// ReadFIMI parses the FIMI repository text format: one transaction per
// line, items as whitespace-separated non-negative integers. Blank lines
// are skipped. Items within a transaction are sorted and deduplicated.
// Malformed tokens — negative items included — are rejected with a
// *ParseError carrying the 1-based line number and the token.
//
// ReadFIMI applies no size limits and is for trusted inputs (local
// files, the synthetic generators); untrusted uploads go through
// ReadFIMILimits.
func ReadFIMI(name string, r io.Reader) (*DB, error) {
	return ReadFIMILimits(name, r, Limits{})
}

// arenaChunk is the largest item capacity of a ReadFIMILimits arena
// chunk (256 KB): the parsed transactions are carved out of chunks, so
// the reader allocates per chunk, not per line.
const arenaChunk = 1 << 16

// ReadFIMILimits is ReadFIMI under explicit input limits; any breach
// returns a typed *ParseError locating the offending line.
func ReadFIMILimits(name string, r io.Reader, lim Limits) (*DB, error) {
	db := &DB{Name: name}
	sc := bufio.NewScanner(r)
	maxLine := 1 << 24
	if lim.MaxLineBytes > 0 && lim.MaxLineBytes < maxLine {
		maxLine = lim.MaxLineBytes
	}
	initBuf := 1 << 20
	if maxLine < initBuf {
		initBuf = maxLine
	}
	// +1 so the scanner has room for the newline that terminates a line
	// of exactly maxLine bytes; content one byte past the limit still
	// overflows the buffer and fails.
	sc.Buffer(make([]byte, 0, initBuf), maxLine+1)
	lineNo := 0
	var totalItems int64
	var items, arena []itemset.Item
	for sc.Scan() {
		lineNo++
		var perr *ParseError
		if items, perr = parseLine(sc.Bytes(), items[:0]); perr != nil {
			perr.Name, perr.Line = name, lineNo
			return nil, perr
		}
		if len(items) == 0 {
			continue
		}
		totalItems += int64(len(items))
		if lim.MaxTotalItems > 0 && totalItems > lim.MaxTotalItems {
			return nil, &ParseError{Name: name, Line: lineNo,
				Msg: fmt.Sprintf("total item count exceeds limit %d", lim.MaxTotalItems)}
		}
		if lim.MaxTransactions > 0 && len(db.Transactions) >= lim.MaxTransactions {
			return nil, &ParseError{Name: name, Line: lineNo,
				Msg: fmt.Sprintf("transaction count exceeds limit %d", lim.MaxTransactions)}
		}
		if !itemset.Itemset(items).IsSorted() {
			slices.Sort(items)
			items = slices.Compact(items)
		}
		if cap(arena)-len(arena) < len(items) {
			// Chunks double up to arenaChunk, so a short input stays cheap.
			size := min(max(2*cap(arena), 256), arenaChunk)
			arena = make([]itemset.Item, 0, max(size, len(items)))
		}
		s := len(arena)
		arena = append(arena, items...)
		db.Transactions = append(db.Transactions, arena[s:len(arena):len(arena)])
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			// The scanner stops before yielding the oversized line, so it
			// is the one after the last line delivered.
			return nil, &ParseError{Name: name, Line: lineNo + 1,
				Msg: fmt.Sprintf("line exceeds %d bytes", maxLine)}
		}
		return nil, fmt.Errorf("dataset: %s: %v", name, err)
	}
	return db, nil
}

// parseLine appends the items of one FIMI line to items, in input order.
// A malformed token yields a *ParseError without Name and Line.
func parseLine(line []byte, items []itemset.Item) ([]itemset.Item, *ParseError) {
	for i := 0; i < len(line); {
		if isSpace(line[i]) {
			i++
			continue
		}
		start := i
		for i < len(line) && !isSpace(line[i]) {
			i++
		}
		it, msg := parseItem(line[start:i])
		if msg != "" {
			return items, &ParseError{Token: string(line[start:i]), Msg: msg}
		}
		items = append(items, it)
	}
	return items, nil
}

// parseItem parses one token the way strconv.ParseUint(tok, 10, 32)
// does, checking bytes in the same order, so a token is "item out of
// range" exactly when its digits pass 2^32-1 before any non-digit
// appears. It returns the failure message, or "" on success.
func parseItem(tok []byte) (itemset.Item, string) {
	if tok[0] == '-' {
		return 0, "negative item"
	}
	var v uint64
	for _, c := range tok {
		d := c - '0'
		if d > 9 {
			return 0, "bad item"
		}
		if v = v*10 + uint64(d); v > math.MaxUint32 {
			return 0, "item out of range"
		}
	}
	return itemset.Item(v), ""
}

// isSpace reports whether c separates FIMI items.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// WriteFIMI writes the database in FIMI text format.
func WriteFIMI(w io.Writer, db *DB) error {
	bw := bufio.NewWriter(w)
	for _, tr := range db.Transactions {
		for i, it := range tr {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(uint64(it), 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
