package export

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sampleStream is a well-formed run's event sequence.
func sampleStream() []obs.Event {
	return []obs.Event{
		{Type: obs.RunStart, Dataset: "chess", Algorithm: "apriori", Representation: "tidset",
			Workers: 4, MinSupport: 100, Transactions: 1000},
		{Type: obs.LevelStart, Level: 2, Phase: "apriori/gen2", Candidates: 50, Pruned: 5},
		{Type: obs.PhaseEnd, Phase: "apriori/gen2", Schedule: "static", Candidates: 50,
			ElapsedNS: 1000, Imbalance: 1.5,
			Load: []obs.WorkerLoad{{Worker: 0, BusyNS: 400, Tasks: 30, Chunks: 2},
				{Worker: 1, BusyNS: 200, Tasks: 20, Chunks: 2}}},
		{Type: obs.BudgetWarning, Resource: "memory", Fraction: 0.5, Used: 512, Limit: 1024},
		{Type: obs.Degraded, Level: 2, Representation: "diffset", LiveBytes: 600},
		{Type: obs.LevelEnd, Level: 2, Phase: "apriori/gen2", Candidates: 50, Pruned: 5,
			Frequent: 20, LiveBytes: 600, ElapsedNS: 2000},
		{Type: obs.RunEnd, Algorithm: "apriori", Itemsets: 120, MaxK: 2,
			PeakLiveBytes: 900, ElapsedNS: 5000, DegradedRun: true},
	}
}

// TestJSONLinesRoundTrip: encode, stamp, decode — same stream back.
func TestJSONLinesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLines(&buf)
	in := sampleStream()
	for _, e := range in {
		s.Event(e)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if n := strings.Count(buf.String(), "\n"); n != len(in) {
		t.Fatalf("wrote %d lines, want %d", n, len(in))
	}
	out, err := DecodeLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i := range out {
		if out[i].TimeUnixNS == 0 {
			t.Errorf("event %d not timestamped", i)
		}
		out[i].TimeUnixNS = 0
		// Event holds slices, so compare canonical JSON forms.
		got, _ := json.Marshal(out[i])
		want, _ := json.Marshal(in[i])
		if !bytes.Equal(got, want) {
			t.Errorf("event %d round-trip:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestJSONLinesWriteError: a failing writer latches its first error and
// drops later events instead of wedging the run.
func TestJSONLinesWriteError(t *testing.T) {
	s := NewJSONLines(failWriter{})
	s.Event(obs.Event{Type: obs.RunStart})
	if s.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	s.Event(obs.Event{Type: obs.RunEnd}) // must not panic
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestReportBuilder folds the sample stream into a valid report.
func TestReportBuilder(t *testing.T) {
	b := NewReportBuilder()
	for _, e := range sampleStream() {
		b.Event(e)
	}
	r := b.Report()
	if err := ValidateReport(r); err != nil {
		t.Fatal(err)
	}
	if r.Dataset != "chess" || r.Algorithm != "apriori" || r.Workers != 4 {
		t.Errorf("identity = %s/%s x%d", r.Dataset, r.Algorithm, r.Workers)
	}
	if len(r.Levels) != 1 || r.Levels[0].Frequent != 20 || r.Levels[0].Pruned != 5 {
		t.Errorf("levels = %+v", r.Levels)
	}
	if len(r.Phases) != 1 || r.Phases[0].Imbalance != 1.5 || len(r.Phases[0].Workers) != 2 {
		t.Errorf("phases = %+v", r.Phases)
	}
	if len(r.Warnings) != 1 || r.Warnings[0].Resource != "memory" {
		t.Errorf("warnings = %+v", r.Warnings)
	}
	if !r.Degraded || r.DegradedAtLevel != 2 {
		t.Errorf("degraded = %v at %d", r.Degraded, r.DegradedAtLevel)
	}
	if r.Itemsets != 120 || r.PeakLiveBytes != 900 || r.GeneratedUnixNS == 0 {
		t.Errorf("totals = %+v", r)
	}
	if got := r.MaxImbalance(); got != 1.5 {
		t.Errorf("MaxImbalance = %v", got)
	}
	// Round-trip through the writer.
	var buf bytes.Buffer
	if err := WriteReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Itemsets != r.Itemsets || len(back.Levels) != len(r.Levels) {
		t.Error("report did not round-trip")
	}
}

// TestValidateReportRejects the schema violations it is meant to catch.
func TestValidateReportRejects(t *testing.T) {
	good := func() *Report {
		b := NewReportBuilder()
		for _, e := range sampleStream() {
			b.Event(e)
		}
		return b.Report()
	}
	cases := []struct {
		name   string
		mutate func(*Report)
	}{
		{"schema", func(r *Report) { r.Schema = "nope/v0" }},
		{"algorithm", func(r *Report) { r.Algorithm = "" }},
		{"min-support", func(r *Report) { r.MinSupport = 0 }},
		{"level-phase", func(r *Report) { r.Levels[0].Phase = "" }},
		{"negative-level", func(r *Report) { r.Levels[0].Frequent = -1 }},
		{"imbalance", func(r *Report) { r.Phases[0].Imbalance = 0.5 }},
		{"task-sum", func(r *Report) { r.Phases[0].Workers[0].Tasks++ }},
		{"task-sum-short", func(r *Report) { r.Phases[0].N++ }},
		{"stop-coherence", func(r *Report) { r.Stop = &StopInfo{Reason: "canceled"} }},
		{"incomplete-coherence", func(r *Report) { r.Incomplete = true }},
		{"degraded-no-level", func(r *Report) { r.DegradedAtLevel = 0 }},
	}
	for _, c := range cases {
		r := good()
		c.mutate(r)
		if err := ValidateReport(r); err == nil {
			t.Errorf("%s: violation not caught", c.name)
		}
	}
}

// TestValidateEventsRejects malformed streams.
func TestValidateEventsRejects(t *testing.T) {
	ok := sampleStream()
	if err := ValidateEvents(ok); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		events []obs.Event
	}{
		{"empty", nil},
		{"no-run-start", ok[1:]},
		{"no-run-end", ok[:len(ok)-1]},
		{"double-open", append(append([]obs.Event{}, ok[:2]...),
			obs.Event{Type: obs.LevelStart, Phase: "apriori/gen2"}, ok[len(ok)-1])},
		{"end-without-start", []obs.Event{ok[0],
			{Type: obs.LevelEnd, Phase: "ghost"}, ok[len(ok)-1]}},
		{"degraded-no-level", []obs.Event{ok[0],
			{Type: obs.Degraded, Representation: "diffset"}, ok[len(ok)-1]}},
	}
	for _, c := range cases {
		if err := ValidateEvents(c.events); err == nil {
			t.Errorf("%s: violation not caught", c.name)
		}
	}
}

// TestProgressWritesLines: every event type renders one line.
func TestProgressWritesLines(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	stream := sampleStream()
	stream = append(stream[:len(stream)-1],
		obs.Event{Type: obs.Stop, Reason: "canceled", Err: "context canceled"},
		stream[len(stream)-1])
	for _, e := range stream {
		p.Event(e)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != len(stream) {
		t.Fatalf("%d lines for %d events:\n%s", lines, len(stream), buf.String())
	}
	for _, want := range []string{"apriori/tidset", "candidates=50", "memory budget at 50%",
		"degraded to diffset", "stopped: canceled", "done"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("progress output missing %q", want)
		}
	}
}
