//go:build faultinject

package serve

// Server-level chaos: inject worker panics and budget breaches into
// chosen runs while other tenants' identical-shaped work proceeds. The
// injured run must answer 500 (panic) or 200 + partial (breach); every
// other concurrent run must complete untouched with itemsets identical
// to its serial ground truth. This is the serving layer's blast-radius
// contract: one tenant's disaster is one tenant's disaster.
//
// Gated behind the faultinject tag alongside the rest of the
// fault-injection suite; the hook it drives is compiled in always, the
// tag only marks this as chaos-tier testing.

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	fim "repro"
	"repro/internal/sched"
)

// chaosSentinels mark the runs chosen for injury, matched by the fault
// hook via the run's itemsets budget (large enough never to trip).
const (
	panicSentinel  = 999999893
	breachSentinel = 999999761
)

func TestServerChaosBlastRadius(t *testing.T) {
	defer sched.SetFaultHook(nil)
	var injured sync.Map // one injury per victim run (keyed by its Control)
	sched.SetFaultHook(func(fc sched.FaultContext) {
		switch fc.Control.MaxItemsets() {
		case panicSentinel:
			// Panic exactly once per injured run, at its first chunk.
			if _, dup := injured.LoadOrStore(fc.Control, true); !dup {
				panic("chaos: injected worker fault")
			}
		case breachSentinel:
			// Force a memory-budget breach: one enormous charge, so the
			// next chunk-boundary check stops the run on its per-run cap
			// without starving the shared pool for everyone else.
			if _, dup := injured.LoadOrStore(fc.Control, true); !dup {
				fc.Control.ChargeMem(1 << 40)
			}
		}
	})

	s, ts := newTestServer(t, Config{
		Workers:      4,
		QueueDepth:   16,
		PerTenant:    16,
		MineWorkers:  2,
		GlobalMemory: 8 << 40, // out of the way: per-run budgets are under test
		CacheBytes:   -1,
	})

	db, err := fim.Dataset("chess", 0.2)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy tenants' ground truth, computed serially up front.
	rels := []float64{0.62, 0.64, 0.66, 0.68}
	serial := make([]*fim.Result, len(rels))
	for i, rel := range rels {
		serial[i], err = fim.Mine(db, rel, fim.Options{Algorithm: fim.Eclat, Representation: fim.Tidset})
		if err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 2
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		// One panic victim, one breach victim, four healthy tenants — all
		// concurrent. Distinct supports per round defeat single-flight.
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			resp, mr := postMine(t, ts,
				fmt.Sprintf("dataset=chess&scale=0.2&support=%g&max-itemsets=%d", 0.55+0.001*float64(round), panicSentinel),
				"", map[string]string{"X-Tenant": "victim-panic"})
			if resp.StatusCode != http.StatusInternalServerError {
				t.Errorf("round %d: panic-injected run answered %d, want 500 (%+v)", round, resp.StatusCode, mr)
				return
			}
			if mr.StopReason != "worker-panic" || mr.Error == "" {
				t.Errorf("round %d: panic-injected run misclassified: %+v", round, mr)
			}
		}(round)
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			resp, mr := postMine(t, ts,
				fmt.Sprintf("dataset=chess&scale=0.2&support=%g&max-itemsets=%d&degrade=off&rep=tidset", 0.57+0.001*float64(round), breachSentinel),
				"", map[string]string{"X-Tenant": "victim-breach"})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("round %d: breach-injected run answered %d, want 200 partial (%+v)", round, resp.StatusCode, mr)
				return
			}
			if !mr.Incomplete || mr.StopReason != "budget:memory" {
				t.Errorf("round %d: breach-injected run misclassified: %+v", round, mr)
			}
		}(round)
		for i, rel := range rels {
			wg.Add(1)
			go func(i int, rel float64) {
				defer wg.Done()
				resp, mr := postMine(t, ts,
					fmt.Sprintf("dataset=chess&scale=0.2&support=%g&rep=tidset", rel),
					"", map[string]string{"X-Tenant": fmt.Sprintf("healthy-%d", i)})
				if resp.StatusCode != http.StatusOK || mr.Incomplete {
					t.Errorf("healthy tenant %d: status %d, %+v", i, resp.StatusCode, mr)
					return
				}
				if mr.Itemsets != serial[i].Len() {
					t.Errorf("healthy tenant %d: %d itemsets beside the chaos, serial found %d",
						i, mr.Itemsets, serial[i].Len())
				}
			}(i, rel)
		}
		wg.Wait()
	}

	// The process is unharmed: panics were contained per-run, counted,
	// and the pool holds no leaked bytes from the injured runs.
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.WorkerPanics != rounds {
		t.Fatalf("worker_panics = %d, want %d", st.WorkerPanics, rounds)
	}
	waitFor(t, "the pool to refund after chaos", func() bool { return s.pool.Used() == 0 })

	// And the server still serves: a fresh healthy request succeeds.
	resp, mr := postMine(t, ts, "abssup=2", uploadFIMI, nil)
	if resp.StatusCode != http.StatusOK || mr.Itemsets == 0 {
		t.Fatalf("post-chaos request: status %d, %+v", resp.StatusCode, mr)
	}
}
