// Root builds. Every kind's level-1 nodes are built straight from the
// recoded rows, over the row chunks of the first pass
// (dataset.Recoded.Chunks), in one team loop named vertical/roots.
// Chunk c owns rows [Lo, Hi): it owns words [Lo/64, ⌈Hi/64⌉) of every
// bitvector root, and its share of every tidset or diffset root starts
// at a per-chunk prefix sum of the chunks' code counts. No two chunks
// write the same word or element, so the build needs no
// synchronization, and a team of one builds exactly what a wider team
// does.

package vertical

import (
	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/tidset"
)

// rootsLoop names the root build's loop in the run's record.
const rootsLoop = "vertical/roots"

// alone finishes the serial root build behind every Roots method: the
// zero Pass has no Control, so only a contained worker panic can stop
// it, and it is raised again, as sched.Team.For does.
func alone(nodes []Node, err error) []Node {
	if err != nil {
		panic(err)
	}
	return nodes
}

// chunkStarts returns, per chunk, where its share of each item's
// payload begins: the sum of size over the earlier chunks.
func chunkStarts(chunks []dataset.Chunk, items int, size func(ch dataset.Chunk, item int) int) [][]int {
	starts := make([][]int, len(chunks))
	for c := range chunks {
		starts[c] = make([]int, items)
		if c > 0 {
			for i := range starts[c] {
				starts[c][i] = starts[c-1][i] + size(chunks[c-1], i)
			}
		}
	}
	return starts
}

// tidsetRoots builds every frequent item's tidset: each chunk appends
// its rows' TIDs at its own offsets.
func tidsetRoots(rec *dataset.Recoded, p dataset.Pass) ([]tidset.Set, error) {
	rows, chunks := rec.DB.Transactions, rec.Chunks()
	sets := make([]tidset.Set, len(rec.Items))
	for i, fi := range rec.Items {
		sets[i] = make(tidset.Set, fi.Support)
	}
	starts := chunkStarts(chunks, len(sets), func(ch dataset.Chunk, i int) int { return ch.Counts[i] })
	err := p.For(rootsLoop, chunks, func(c int) (int, int) {
		// part[i] is the chunk's share of item i's tidset, empty with
		// room up to the set's end: appends fill it in place.
		part, n := make([]tidset.Set, len(sets)), 0
		for i, s := range sets {
			part[i] = s[starts[c][i]:starts[c][i]]
		}
		for tid := chunks[c].Lo; tid < chunks[c].Hi; tid++ {
			for _, it := range rows[tid] {
				part[it] = append(part[it], tidset.TID(tid))
			}
			n += len(rows[tid])
		}
		return 4 * n, 4 * n
	})
	if err != nil {
		return nil, err
	}
	return sets, nil
}

// bitvectorRoots sets every frequent item's bits: each chunk sets the
// bits of its own rows, which lie in words no other chunk touches.
func bitvectorRoots(rec *dataset.Recoded, p dataset.Pass) ([]*bitvec.Vector, error) {
	rows, chunks := rec.DB.Transactions, rec.Chunks()
	vecs := make([]*bitvec.Vector, len(rec.Items))
	for i := range vecs {
		vecs[i] = bitvec.New(len(rows))
	}
	err := p.For(rootsLoop, chunks, func(c int) (int, int) {
		ch, n := chunks[c], 0
		for tid := ch.Lo; tid < ch.Hi; tid++ {
			for _, it := range rows[tid] {
				vecs[it].Set(tidset.TID(tid))
			}
			n += len(rows[tid])
		}
		return 4 * n, 8 * ((ch.Hi+63)/64 - ch.Lo/64) * len(vecs)
	})
	if err != nil {
		return nil, err
	}
	return vecs, nil
}

// diffsetRoots builds every frequent item's diffset root on its
// shorter side: an item in at most half the rows (tidsSide) stores its
// tidset t(x), a denser item the complement d(x) = D − t(x). Each chunk
// writes its share at its own offsets: a tidset-side item gets the TIDs
// of the chunk's rows that hold it, as in tidsetRoots, a
// complement-side item the TIDs of the rows that lack it. tids[i]
// reports which side item i stores.
func diffsetRoots(rec *dataset.Recoded, p dataset.Pass) (sets []tidset.Set, tids []bool, err error) {
	rows, chunks := rec.DB.Transactions, rec.Chunks()
	sets = make([]tidset.Set, len(rec.Items))
	tids = make([]bool, len(rec.Items))
	for i, fi := range rec.Items {
		tids[i] = tidsSide(fi.Support, len(rows))
		sets[i] = make(tidset.Set, min(fi.Support, len(rows)-fi.Support))
	}
	size := func(ch dataset.Chunk, i int) int {
		if tids[i] {
			return ch.Counts[i]
		}
		return ch.Hi - ch.Lo - ch.Counts[i]
	}
	starts := chunkStarts(chunks, len(sets), size)
	err = p.For(rootsLoop, chunks, func(c int) (int, int) {
		ch, pos, n := chunks[c], starts[c], 0
		// gap writes the TIDs [from, to) into complement-side item i.
		gap := func(i, from, to int) {
			d := sets[i][pos[i] : pos[i]+to-from]
			for j := range d {
				d[j] = tidset.TID(from + j)
			}
			pos[i] += to - from
		}
		// next[i] is the first row of the chunk not yet placed in or out
		// of complement-side item i's diffset.
		next := make([]int, len(sets))
		for i := range next {
			next[i] = ch.Lo
		}
		for tid := ch.Lo; tid < ch.Hi; tid++ {
			for _, it := range rows[tid] {
				if tids[it] {
					sets[it][pos[it]] = tidset.TID(tid)
					pos[it]++
					continue
				}
				gap(int(it), next[it], tid)
				next[it] = tid + 1
			}
			n += len(rows[tid])
		}
		stored := 0
		for i := range sets {
			if !tids[i] {
				gap(i, next[i], ch.Hi)
			}
			stored += size(ch, i)
		}
		return 4 * n, 4 * stored
	})
	if err != nil {
		return nil, nil, err
	}
	return sets, tids, nil
}
