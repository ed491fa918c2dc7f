package prof_test

// Tests drive the labels through the public mining facade: a labeled
// run's goroutines must actually carry the run identity, end to end
// through fim.Options → pprof.Do → scheduler worker inheritance. They
// read the labels from goroutine-profile snapshots taken inside the
// run's own scheduler chunks, so no sampling is involved. The fault
// hook is process-global, so no test here uses t.Parallel.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"

	fim "repro"
	"repro/internal/obs/prof"
	"repro/internal/sched"
)

// callerLabels takes a goroutine profile (the debug=1 text form, which
// prints each goroutine group's labels) and returns the labels of the
// group that is writing it: the calling goroutine's.
func callerLabels() (map[string]string, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		return nil, err
	}
	for _, group := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(group, "runtime/pprof.writeGoroutine") {
			continue
		}
		labels := map[string]string{}
		for _, line := range strings.Split(group, "\n") {
			if js, ok := strings.CutPrefix(line, "# labels: "); ok {
				if err := json.Unmarshal([]byte(js), &labels); err != nil {
					return nil, fmt.Errorf("labels line %q: %v", line, err)
				}
			}
		}
		return labels, nil
	}
	return nil, fmt.Errorf("no goroutine group is writing the profile:\n%s", buf.String())
}

// TestRunLabelsInProfile: a labeled run's first-pass chunks carry the
// run identity (fim_run_id, fim_tenant, fim_algo, fim_rep) with
// fim_phase=setup, and its level chunks carry the same identity with
// the miner's phase.
func TestRunLabelsInProfile(t *testing.T) {
	const runID = 424242
	var (
		mu           sync.Mutex
		setup, level map[string]string
		snapErr      error
	)
	sched.SetFaultHook(func(fc sched.FaultContext) {
		// One snapshot at a time, so exactly one goroutine is writing.
		mu.Lock()
		defer mu.Unlock()
		if level != nil || snapErr != nil {
			return
		}
		l, err := callerLabels()
		switch {
		case err != nil:
			snapErr = err
		case fc.Seq == 1: // the run's first chunk is in dataset/count
			setup = l
		case l[prof.LabelPhase] != prof.PhaseSetup:
			level = l
		}
	})
	defer sched.SetFaultHook(nil)

	db, err := fim.Dataset("chess", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	opt := fim.Options{
		Algorithm:      fim.Eclat,
		Representation: fim.Tidset,
		Workers:        2,
		ProfileLabels:  true,
		RunID:          runID,
		Tenant:         "unit-prof",
	}
	if _, err := fim.MineAbsolute(db, db.AbsoluteSupport(0.6), opt); err != nil {
		t.Fatal(err)
	}
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	if setup == nil || level == nil {
		t.Fatalf("missing snapshots: first-pass %v, level %v", setup, level)
	}
	want := map[string]string{
		prof.LabelRunID:  fmt.Sprint(runID),
		prof.LabelTenant: "unit-prof",
		prof.LabelAlgo:   "eclat",
		prof.LabelRep:    "tidset",
	}
	for _, snap := range []struct {
		name   string
		labels map[string]string
	}{{"first-pass chunk", setup}, {"level chunk", level}} {
		for k, v := range want {
			if snap.labels[k] != v {
				t.Errorf("%s: %s = %q, want %q (labels %v)", snap.name, k, snap.labels[k], v, snap.labels)
			}
		}
	}
	if setup[prof.LabelPhase] != prof.PhaseSetup {
		t.Errorf("first-pass chunk: %s = %q, want %q", prof.LabelPhase, setup[prof.LabelPhase], prof.PhaseSetup)
	}
	if !strings.HasPrefix(level[prof.LabelPhase], "eclat/") {
		t.Errorf("level chunk: %s = %q, want an eclat/ phase", prof.LabelPhase, level[prof.LabelPhase])
	}
}

// TestPhaseLabelerUnarmed: events before Arm are ignored, not a panic.
func TestPhaseLabelerUnarmed(t *testing.T) {
	p := prof.NewPhaseLabeler()
	p.Event(fim.Event{Type: fim.EventLevelStart, Phase: "eclat/classes"})
	p.Arm(context.Background())
	p.Event(fim.Event{Type: fim.EventLevelStart, Phase: "eclat/classes"})
	p.Event(fim.Event{Type: fim.EventRunEnd}) // non-level events ignored
}
