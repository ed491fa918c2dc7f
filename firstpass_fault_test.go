//go:build faultinject

package fim

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

// firstPassPanic is the SCHED_FAULT plan the test arms: a panic at the
// first chunk boundary of the process, a chunk of the first pass's
// dataset/count loop.
const firstPassPanic = "panic:1"

// TestFirstPassFaultPlan: a worker panic injected through SCHED_FAULT
// into the first pass ends the run there, with a *WorkerPanicError and
// an empty Incomplete result, and no level opened. The plan is read when
// the process starts, so the test runs itself again with it armed.
func TestFirstPassFaultPlan(t *testing.T) {
	if os.Getenv("SCHED_FAULT") != firstPassPanic {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFirstPassFaultPlan$", "-test.v")
		cmd.Env = append(os.Environ(), "SCHED_FAULT="+firstPassPanic)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("armed run failed: %v\n%s", err, out)
		}
		return
	}
	db := runctlDB(t)
	rec := &EventRecorder{}
	res, err := Mine(db, 0.5, Options{Algorithm: Eclat, Representation: Bitvector, Workers: 2, Observer: rec})
	var perr *WorkerPanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *WorkerPanicError", err)
	}
	if res == nil || !res.Incomplete || res.Len() != 0 || !errors.As(res.StopCause, &perr) {
		t.Fatalf("result %+v, want empty and incomplete with the panic", res)
	}
	assertStream(t, "eclat", rec.Events())
	if n := countType(rec.Events(), EventLevelStart); n != 0 {
		t.Errorf("%d levels opened", n)
	}
	phases := rec.ByType(EventPhaseEnd)
	if len(phases) != 1 || phases[0].Phase != "dataset/count" {
		t.Errorf("phase_end events %+v, want only dataset/count", phases)
	}
}
