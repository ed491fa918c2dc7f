package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one interval of the traced phase. Spans of one mine share a
// trace identifier (workload/cell/round); the mine is the root and its
// stages are the children. Direct layer calls are roots of their own.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// SelfS is the duration minus the part of it child spans cover.
	SelfS float64 `json:"self_s"`
}

// spanLog keeps spans in memory until the benchmark ends. Times are
// seconds since the log was created.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(parent int, trace, name string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartS: start.Sub(l.epoch).Seconds(), EndS: end.Sub(l.epoch).Seconds()})
	return id
}

// addMine records one observed mine that started at start: the root
// span, a prologue up to the first stage, one span per stage named by
// its phase, and an epilogue from the last stage to the return.
func (l *spanLog) addMine(trace string, start time.Time, m *observedMine) {
	at := func(d time.Duration) time.Time { return start.Add(d) }
	root := l.add(0, trace, "mine", start, at(m.wall))
	l.add(root, trace, "prologue", start, at(m.prologue()))
	last := m.prologue()
	for _, s := range m.stages {
		l.add(root, trace, s.phase, at(s.start), at(s.end))
		last = max(last, s.end)
	}
	l.add(root, trace, "epilogue", at(last), at(m.wall))
}

// withSelfTimes returns the spans with SelfS filled in.
func (l *spanLog) withSelfTimes() []span {
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := slices.Clone(l.spans)
	for i := range out {
		out[i].SelfS = out[i].EndS - out[i].StartS - covered(out[i], children[out[i].ID])
	}
	return out
}

// covered returns how much of p's interval the union of kids covers.
func covered(p span, kids []span) float64 {
	slices.SortFunc(kids, func(a, b span) int {
		switch {
		case a.StartS < b.StartS:
			return -1
		case a.StartS > b.StartS:
			return 1
		}
		return 0
	})
	var total float64
	cur := p.StartS
	for _, k := range kids {
		lo, hi := max(k.StartS, cur), min(k.EndS, p.EndS)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

func (l *spanLog) write(path string) error {
	b, err := json.MarshalIndent(map[string]any{"spans": l.withSelfTimes()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
