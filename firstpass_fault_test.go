//go:build faultinject

package fim

import (
	"errors"
	"os"
	"os/exec"
	"slices"
	"testing"
)

// The SCHED_FAULT plans the tests arm. Chunk numbers count from the
// first pass, and runctlDB's rows make two chunks per first-pass loop on
// a team of two: chunk 1 is the first of dataset/count, chunk 5 the
// first of FP-growth's fpgrowth/tree (after two of dataset/count and two
// of dataset/recode), and chunk 7 the first of an Eclat tidset run's
// dataset/pairs (after two of vertical/roots).
const (
	firstPassPanic = "panic:1"
	treePanic      = "panic:5"
	pairsPanic     = "panic:7"
)

// armed reports whether this process runs under the SCHED_FAULT plan.
// If not, it runs the calling test again in a child process with the
// plan armed, fails if the child fails, and reports false: the plan is
// read when the process starts.
func armed(t *testing.T, plan string) bool {
	t.Helper()
	if os.Getenv("SCHED_FAULT") == plan {
		return true
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.v")
	cmd.Env = append(os.Environ(), "SCHED_FAULT="+plan)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("armed run failed: %v\n%s", err, out)
	}
	return false
}

// assertPanicStop checks that a run a worker panic stopped in its first
// pass returned a *WorkerPanicError and an empty Incomplete result,
// opened no level, and ended exactly the loops phases named.
func assertPanicStop(t *testing.T, algo string, res *Result, err error, rec *EventRecorder, phases ...string) {
	t.Helper()
	var perr *WorkerPanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *WorkerPanicError", err)
	}
	if res == nil || !res.Incomplete || res.Len() != 0 || !errors.As(res.StopCause, &perr) {
		t.Fatalf("result %+v, want empty and incomplete with the panic", res)
	}
	assertStream(t, algo, rec.Events())
	if n := countType(rec.Events(), EventLevelStart); n != 0 {
		t.Errorf("%d levels opened", n)
	}
	var got []string
	for _, e := range rec.ByType(EventPhaseEnd) {
		got = append(got, e.Phase)
	}
	if !slices.Equal(got, phases) {
		t.Errorf("phase_end events %v, want %v", got, phases)
	}
}

// TestFirstPassFaultPlan: a worker panic injected through SCHED_FAULT
// into the first pass ends the run there, with a *WorkerPanicError and
// an empty Incomplete result, and no level opened.
func TestFirstPassFaultPlan(t *testing.T) {
	if !armed(t, firstPassPanic) {
		return
	}
	rec := &EventRecorder{}
	res, err := Mine(runctlDB(t), 0.5, Options{Algorithm: Eclat, Representation: Bitvector, Workers: 2, Observer: rec})
	assertPanicStop(t, "eclat", res, err, rec, "dataset/count")
}

// TestFPTreeFaultPlan: a worker panic injected into a chunk of
// FP-growth's tree build ends the run there, before the header loop
// opens its level.
func TestFPTreeFaultPlan(t *testing.T) {
	if !armed(t, treePanic) {
		return
	}
	rec := &EventRecorder{}
	res, err := Mine(runctlDB(t), 0.5, Options{Algorithm: FPGrowth, Workers: 2, Observer: rec})
	assertPanicStop(t, "fpgrowth", res, err, rec, "dataset/count", "dataset/recode", "fpgrowth/tree")
}

// TestPairsFaultPlan: a worker panic injected into a chunk of the
// level-2 pair count, which the cost rule picks for runctlDB's tidsets,
// ends the run there with a *WorkerPanicError. The pair stage has
// opened its level and combined nothing, so the Incomplete result holds
// only the frequent items (committed before level 2), and the loops
// that ended are the first pass's and the count's.
func TestPairsFaultPlan(t *testing.T) {
	if !armed(t, pairsPanic) {
		return
	}
	rec := &EventRecorder{}
	db := runctlDB(t)
	res, err := Mine(db, 0.5, Options{Algorithm: Eclat, Representation: Tidset, Workers: 2, Observer: rec})
	var perr *WorkerPanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *WorkerPanicError", err)
	}
	if res == nil || !res.Incomplete || res.MaxK != 1 || res.Len() != len(res.Rec.Items) || !errors.As(res.StopCause, &perr) {
		t.Fatalf("result %+v, want incomplete with the panic and the frequent items only", res)
	}
	assertExactSupports(t, db, res)
	assertStream(t, "eclat", rec.Events())
	if starts, ends := rec.ByType(EventLevelStart), countType(rec.Events(), EventLevelEnd); len(starts) != 1 || starts[0].Phase != "eclat/pairs" || ends != 0 {
		t.Errorf("level_start %v and %d level_end, want eclat/pairs opened and none closed", starts, ends)
	}
	var got []string
	for _, e := range rec.ByType(EventPhaseEnd) {
		got = append(got, e.Phase)
	}
	if want := []string{"dataset/count", "dataset/recode", "vertical/roots", "dataset/pairs"}; !slices.Equal(got, want) {
		t.Errorf("phase_end events %v, want %v", got, want)
	}
}
