package main

import (
	"sync"
	"time"

	fim "repro"
)

// recorder is the observer of a traced mine: it keeps every event with
// the time it arrived, measured from the fim.Mine call.
type recorder struct {
	start  time.Time
	mu     sync.Mutex
	events []stampedEvent
}

type stampedEvent struct {
	at time.Duration
	e  fim.Event
}

func (r *recorder) Event(e fim.Event) {
	at := time.Since(r.start)
	r.mu.Lock()
	r.events = append(r.events, stampedEvent{at, e})
	r.mu.Unlock()
}

// stage is one level or class expansion of a mine, from its level_start
// to its level_end.
type stage struct {
	phase      string
	level      int
	start, end time.Duration
	// gap is the time since the previous stage ended, or since the call
	// for the first stage.
	gap                          time.Duration
	candidates, pruned, frequent int
}

// observedMine is what one traced mine leaves behind for the per-layer
// metrics.
type observedMine struct {
	wall     time.Duration
	stages   []stage
	phases   []fim.Event // phase_end events
	counters map[string]int64
	peakLive int64
	workers  int
}

func newObservedMine(events []stampedEvent, wall time.Duration, workers int) *observedMine {
	m := &observedMine{wall: wall, workers: workers}
	open := map[string]int{} // phase -> index in m.stages
	var lastEnd time.Duration
	for _, se := range events {
		e := se.e
		switch e.Type {
		case fim.EventLevelStart:
			open[e.Phase] = len(m.stages)
			m.stages = append(m.stages, stage{phase: e.Phase, level: e.Level, start: se.at,
				end: se.at, gap: se.at - lastEnd, candidates: e.Candidates, pruned: e.Pruned})
		case fim.EventLevelEnd:
			if i, ok := open[e.Phase]; ok {
				m.stages[i].end = se.at
				m.stages[i].frequent = e.Frequent
				delete(open, e.Phase)
			}
			lastEnd = se.at
		case fim.EventPhaseEnd:
			m.phases = append(m.phases, e)
		case fim.EventKernelCounters:
			m.counters = e.Counters
		case fim.EventRunEnd:
			m.peakLive = e.PeakLiveBytes
		}
	}
	return m
}

// prologue is the time from the call to the first stage: recode, run
// control set-up and the root payload build.
func (m *observedMine) prologue() time.Duration {
	if len(m.stages) == 0 {
		return m.wall
	}
	return m.stages[0].start
}

// frac is counter num over the sum of counters den.
func (m *observedMine) frac(num string, den ...string) float64 {
	var d int64
	for _, k := range den {
		d += m.counters[k]
	}
	return ratio(float64(m.counters[num]), float64(d))
}

type aprioriTotals struct {
	generated, pruned, frequent int
	gen, count                  time.Duration
}

// aprioriTotals sums the candidate levels (size two and up) of an
// Apriori mine.
func (m *observedMine) aprioriTotals() aprioriTotals {
	var t aprioriTotals
	for _, s := range m.stages {
		if s.level < 2 {
			continue
		}
		t.generated += s.candidates
		t.pruned += s.pruned
		t.frequent += s.frequent
		t.gen += s.gap
		t.count += s.end - s.start
	}
	return t
}

type schedLoad struct{ imbalance, idle float64 }

// schedLoad summarizes the scheduler loops of a mine: the max/mean
// busy-time imbalance weighted by each loop's busy time, and the share
// of the team's loop time no worker was busy.
func (m *observedMine) schedLoad() schedLoad {
	var busy, weighted, wall float64
	for _, e := range m.phases {
		var b float64
		for _, l := range e.Load {
			b += float64(l.BusyNS)
		}
		busy += b
		weighted += e.Imbalance * b
		wall += float64(e.ElapsedNS)
	}
	if wall == 0 {
		return schedLoad{}
	}
	return schedLoad{
		imbalance: ratio(weighted, busy),
		idle:      1 - ratio(busy, float64(m.workers)*wall),
	}
}
