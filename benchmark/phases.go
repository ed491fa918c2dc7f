package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	fim "repro"
	"repro/internal/dataset"
	"repro/internal/vertical"
)

// input is a parsed workload with its reference answer.
type input struct {
	name    string
	text    []byte // the FIMI text db was parsed from
	db      *fim.DB
	support float64
	ref     string      // digest of the reference answer
	refRes  *fim.Result // the serial Eclat/tidset reference result
}

// tally counts the mines a run attempted and those that failed: returned
// an error (a contained worker panic included), stopped early, or mined
// another answer than the reference.
type tally struct{ attempted, failed int }

func (t *tally) check(in input, res *fim.Result, err error) bool {
	t.attempted++
	ok := verified(res, err, in.ref)
	if !ok {
		t.failed++
	}
	return ok
}

// cellTiming is the timed phase's record of one cell.
type cellTiming struct {
	Cell string `json:"cell"`
	// Samples are wall times of one mine, each the mean of the mines of
	// one sample; MedianS, Q1S, Q3S and TailS are taken over them.
	Samples []float64 `json:"samples_s"`
	MedianS float64   `json:"median_s"`
	Q1S     float64   `json:"q1_s"`
	Q3S     float64   `json:"q3_s"`
	// TailP is the highest percentile with at least ten samples beyond
	// it, and TailS its value; both are absent when no percentile has.
	TailP  float64 `json:"tail_p,omitempty"`
	TailS  float64 `json:"tail_s,omitempty"`
	Failed int     `json:"failed_samples"`
	// AllocMB is the median heap bytes allocated per mine; PeakLiveMB is
	// the run-control peak of live payload bytes.
	AllocMB    float64 `json:"alloc_mb"`
	PeakLiveMB float64 `json:"peak_live_mb"`
}

// timing is what the timed phase measures: every cell, the parse of the
// workload's text (setup_s), and the host factor of the run.
type timing struct {
	cells []cellTiming
	setup []float64 // wall times of one parse, each the mean of a sample
	host  float64
}

// timedPhase measures every cell's fim.Mine wall time with no observer
// attached, the fim.ReadFIMI wall time of the workload's text, and the
// host factor. A warm-up mine per cell, observed, reads the peak live
// payload bytes. Then sweeps run until the budget is spent. Each sweep
// times the host reference once and grants every cell and the parse,
// starting from a rotating one, cfg.slice of running time; one with time
// left takes one sample, and a sample that outlasts the grant is paid
// back from later ones. Each thus runs for the same share of the budget,
// spread across all of it: a fast cell samples every sweep, a slow one
// every few sweeps. A mine's noise shrinks with its length, so equal
// shares give every median about the same precision.
//
// A sample runs back to back after a GC, until cfg.slice has passed, and
// records the mean: where a call's allocations cross the heap goal a
// collection lands inside it, and the mean spreads that cost evenly
// instead of splitting single calls into those that paid for a
// collection and those that did not. Only the fim.Mine and fim.ReadFIMI
// calls are timed; heap bytes allocated are read around the mines, and
// results are verified afterwards. A sample with a failed mine is
// counted and dropped.
func timedPhase(cfg config, in input, t *tally) timing {
	out := make([]cellTiming, len(cfg.cells))
	for i, c := range cfg.cells {
		out[i].Cell = c.name
		runtime.GC()
		_, m, _ := observe(c, workers, in, t)
		out[i].PeakLiveMB = float64(m.peakLive) / 1e6
	}

	allocs := make([][]float64, len(cfg.cells))
	// sample takes one sample of cell i and returns how long it mined.
	sample := func(i int) time.Duration {
		ct := &out[i]
		var results []*fim.Result
		var errs []error
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for len(results) == 0 || time.Since(start) < cfg.slice {
			res, err := cfg.cells[i].mine(in.db, in.support, workers, nil)
			results, errs = append(results, res), append(errs, err)
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		ok := true
		for b := range results {
			ok = t.check(in, results[b], errs[b]) && ok
		}
		if !ok {
			ct.Failed++
			return d
		}
		n := float64(len(results))
		ct.Samples = append(ct.Samples, d.Seconds()/n)
		allocs[i] = append(allocs[i], float64(after.TotalAlloc-before.TotalAlloc)/1e6/n)
		return d
	}
	var setup []float64
	// parse takes one sample of the parse and returns how long it parsed.
	parse := func() time.Duration {
		runtime.GC()
		n, start := 0, time.Now()
		for ; n == 0 || time.Since(start) < cfg.slice; n++ {
			// The text parsed once already, so it cannot fail now.
			_, _ = fim.ReadFIMI(in.name, bytes.NewReader(in.text))
		}
		d := time.Since(start)
		setup = append(setup, d.Seconds()/float64(n))
		return d
	}
	// Jobs 0 to len(cfg.cells)-1 are the cells, the last is the parse.
	jobs := len(cfg.cells) + 1
	credit := make([]time.Duration, jobs)
	var host []float64
	start := time.Now()
sweeps:
	for sweep := 0; ; sweep++ {
		host = append(host, timeReference())
		for j := range jobs {
			if sweep > 0 && time.Since(start) >= cfg.budget {
				break sweeps
			}
			i := (sweep + j) % jobs
			if credit[i] += cfg.slice; credit[i] <= 0 {
				continue
			}
			if i < len(cfg.cells) {
				credit[i] -= sample(i)
			} else {
				credit[i] -= parse()
			}
		}
	}

	for i := range out {
		s := out[i].Samples
		out[i].AllocMB = median(allocs[i])
		out[i].MedianS = median(s)
		out[i].Q1S, out[i].Q3S = quartiles(s)
		if p, v, ok := tail(s); ok {
			out[i].TailP, out[i].TailS = p, v
		}
	}
	return timing{cells: out, setup: setup, host: median(host) / refNominal}
}

// directReps is how many times the traced phase times each direct layer
// call; it reports the median. tracedMinRounds is the least number of
// rounds of traced mines.
const (
	directReps      = 5
	tracedMinRounds = 3
)

// tracedPhase derives the per-layer metrics. It times recode, every
// representation's root build and result decoding by direct calls, then
// runs rounds until at least tracedMinRounds are done and the budget has
// no room for another: each round mines every cell once observed and
// once unobserved (alternating which goes first), plus one single-worker
// eclat_diffset mine for the speedup. Spans go to log.
func tracedPhase(cfg config, in input, t *tally, log *spanLog) map[string]float64 {
	m := map[string]float64{}
	abs := in.db.AbsoluteSupport(in.support)
	direct := func(name string, f func()) float64 {
		var xs []float64
		for r := 0; r < directReps; r++ {
			runtime.GC()
			start := time.Now()
			f()
			end := time.Now()
			log.add(0, in.name+"/direct", name, start, end)
			xs = append(xs, end.Sub(start).Seconds())
		}
		return median(xs)
	}
	var byCode, byFreq *dataset.Recoded
	m["dataset.recode_s"] = direct("dataset.recode", func() { byCode = in.db.RecodeOrdered(abs, dataset.ByCode) })
	m["dataset.recode_freq_s"] = direct("dataset.recode_freq", func() { byFreq = in.db.RecodeOrdered(abs, dataset.ByFrequency) })
	m["dataset.frequent_items"] = float64(len(byCode.Items))
	for _, k := range vertical.AllKinds() {
		// fim.Mine recodes by frequency for nodeset and by code otherwise.
		rec := byCode
		if k == vertical.Nodeset {
			rec = byFreq
		}
		var roots []vertical.Node
		m["vertical.roots_s."+k.String()] = direct("vertical.roots."+k.String(), func() { roots = vertical.New(k).Roots(rec) })
		m["vertical.roots_mb."+k.String()] = float64(vertical.NodesBytes(roots)) / 1e6
	}
	m["core.decode_s"] = direct("core.decode", func() { in.refRes.Decoded() })

	observedWall := map[string][]float64{}
	plainWall := map[string][]float64{}
	mines := map[string][]*observedMine{}
	var serialWall []float64
	speedupCell, hasSpeedupCell := findCell(cfg.cells, "eclat_diffset")

	start := time.Now()
	var roundTime time.Duration
	for round := 0; round < tracedMinRounds || time.Since(start)+roundTime <= cfg.budget; round++ {
		roundStart := time.Now()
		for j := range cfg.cells {
			c := cfg.cells[(round+j)%len(cfg.cells)]
			for k := 0; k < 2; k++ {
				runtime.GC()
				if (k+round)%2 == 0 {
					if d, ok := timeMine(c, workers, in, t); ok {
						plainWall[c.name] = append(plainWall[c.name], d)
					}
					continue
				}
				if start, om, ok := observe(c, workers, in, t); ok {
					log.addMine(fmt.Sprintf("%s/%s/%d", in.name, c.name, round), start, om)
					mines[c.name] = append(mines[c.name], om)
					observedWall[c.name] = append(observedWall[c.name], om.wall.Seconds())
				}
			}
		}
		if hasSpeedupCell {
			runtime.GC()
			if d, ok := timeMine(speedupCell, 1, in, t); ok {
				serialWall = append(serialWall, d)
			}
		}
		roundTime = time.Since(roundStart)
	}

	for _, lm := range mineMetrics() {
		if len(mines[lm.cell]) == 0 {
			continue
		}
		var xs []float64
		for _, om := range mines[lm.cell] {
			xs = append(xs, lm.value(om))
		}
		m[lm.Name] = median(xs)
	}
	if hasSpeedupCell {
		m["sched.speedup.eclat_diffset"] = ratio(median(serialWall), median(plainWall[speedupCell.name]))
	}
	var observed, plain float64
	for _, c := range cfg.cells {
		observed += median(observedWall[c.name])
		plain += median(plainWall[c.name])
	}
	m["obs.overhead_frac"] = ratio(observed, plain) - 1
	return m
}

// observe runs one mine with a recorder attached and verifies it. It
// returns when the mine started and what it left behind.
func observe(c cell, workers int, in input, t *tally) (time.Time, *observedMine, bool) {
	rec := &recorder{start: time.Now()}
	res, err := c.mine(in.db, in.support, workers, rec)
	wall := time.Since(rec.start)
	return rec.start, newObservedMine(rec.events, wall, workers), t.check(in, res, err)
}

// timeMine times one unobserved mine and verifies it.
func timeMine(c cell, workers int, in input, t *tally) (float64, bool) {
	start := time.Now()
	res, err := c.mine(in.db, in.support, workers, nil)
	d := time.Since(start)
	return d.Seconds(), t.check(in, res, err)
}

func findCell(cs []cell, name string) (cell, bool) {
	for _, c := range cs {
		if c.name == name {
			return c, true
		}
	}
	return cell{}, false
}
