package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	fim "repro"
	"repro/internal/obs/export"
	"repro/internal/obs/metrics"
)

// scrape fetches and parses the /metrics exposition.
func scrape(t *testing.T, url string) *metrics.Scrape {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
		t.Fatalf("content type %q, want %q", ct, metrics.TextContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("parsing exposition: %v\n%s", err, body)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	return sc
}

// TestMetricsEndpoint: mining traffic shows up in /metrics as a valid,
// monotone exposition — admission outcomes, run histograms, pool gauges
// — and a second scrape never goes backwards.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantSeries: 2})

	if resp, _ := postMine(t, ts, "abssup=2", uploadFIMI, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("mine failed: %d", resp.StatusCode)
	}
	first := scrape(t, ts.URL)

	if v, ok := first.Value("fimserve_admission_total", map[string]string{"outcome": "admitted"}); !ok || v != 1 {
		t.Fatalf("admitted counter = %v, %v; want 1", v, ok)
	}
	if v, ok := first.Value("fimserve_run_wall_seconds_count", nil); !ok || v != 1 {
		t.Fatalf("run wall count = %v, %v; want 1", v, ok)
	}
	if v, ok := first.Value("fimserve_queue_wait_seconds_count", nil); !ok || v != 1 {
		t.Fatalf("queue wait count = %v, %v; want 1", v, ok)
	}
	if _, ok := first.Value("fimserve_pool_cap_bytes", nil); !ok {
		t.Fatal("pool cap gauge missing")
	}
	// The run's scheduler loops fed the imbalance histogram through the
	// event tap.
	if v, ok := first.Value("fimserve_sched_imbalance_count", nil); !ok || v < 1 {
		t.Fatalf("imbalance observations = %v, %v; want >= 1", v, ok)
	}

	// More traffic between scrapes: a cache hit and two new tenants past
	// the series cap.
	postMine(t, ts, "abssup=2", uploadFIMI, nil) // cache hit
	postMine(t, ts, "abssup=3", uploadFIMI, map[string]string{"X-Tenant": "t-b"})
	postMine(t, ts, "abssup=4", uploadFIMI, map[string]string{"X-Tenant": "t-c"})

	second := scrape(t, ts.URL)
	if err := metrics.CheckMonotonic(first, second); err != nil {
		t.Fatalf("counters went backwards between scrapes: %v", err)
	}
	if v, ok := second.Value("fimserve_cache_requests_total", map[string]string{"outcome": "hit"}); !ok || v != 1 {
		t.Fatalf("cache hit counter = %v, %v; want 1", v, ok)
	}
	// TenantSeries=2: "anon" and "t-b" tuples materialize first;
	// "t-c" arrives past the cap and folds into tenant="other".
	sum := func(sc *metrics.Scrape, tenant string) (total float64) {
		for _, s := range sc.Samples("fimserve_tenant_requests_total") {
			if s.Labels["tenant"] == tenant {
				total += s.Value
			}
		}
		return
	}
	if got := sum(second, metrics.FoldValue); got == 0 {
		t.Fatalf("no folded tenant series; tenants: %v", second.Samples("fimserve_tenant_requests_total"))
	}
}

// TestKernelRollupUnderOverlap: two runs that overlap in time both add
// their exact kernel counts to fimserve_kernel_ops_total. Each run's
// nodes_built_diffset is measured solo first; the gated pair, held
// until both occupy a worker slot, must then add exactly the sum.
func TestKernelRollupUnderOverlap(t *testing.T) {
	gate := make(chan struct{})
	gateSentinelRuns(t, gate)
	s, ts := newTestServer(t, Config{Workers: 2, PerTenant: 8, CacheBytes: -1})
	op := map[string]string{"op": "nodes_built_diffset"}
	built := func() float64 {
		v, _ := scrape(t, ts.URL).Value("fimserve_kernel_ops_total", op)
		return v
	}
	// Distinct thresholds keep the pair out of each other's
	// single-flight join.
	queries := []string{"abssup=2&algo=eclat&rep=diffset", "abssup=3&algo=eclat&rep=diffset"}
	var solo float64
	for _, q := range queries {
		before := built()
		if resp, mr := postMine(t, ts, q, uploadFIMI, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("solo %s: status %d, %+v", q, resp.StatusCode, mr)
		}
		d := built() - before
		if d <= 0 {
			t.Fatalf("solo %s added %v nodes_built_diffset, want > 0", q, d)
		}
		solo += d
	}

	before := built()
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, mr := postMine(t, ts, fmt.Sprintf("%s&max-itemsets=%d", q, sentinelItemsets), uploadFIMI, nil)
			if resp.StatusCode != http.StatusOK || mr.Incomplete {
				t.Errorf("overlapped %s: status %d, %+v", q, resp.StatusCode, mr)
			}
		}()
	}
	waitFor(t, "both runs to hold a slot", func() bool { return s.adm.runningLen() == 2 })
	close(gate)
	wg.Wait()
	if got := built() - before; got != solo {
		t.Fatalf("overlapped runs added %v nodes_built_diffset, want the solo runs' %v", got, solo)
	}
}

// TestStatsMatchesMetrics: /stats is a projection of the same registry
// /metrics renders — after arbitrary traffic the two agree exactly.
func TestStatsMatchesMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	postMine(t, ts, "abssup=2", uploadFIMI, nil)
	postMine(t, ts, "abssup=2", uploadFIMI, nil) // cache hit
	postMine(t, ts, "abssup=3", uploadFIMI, nil) // filtered hit
	postMine(t, ts, "", uploadFIMI, nil)         // bad request (no support)

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	sc := scrape(t, ts.URL)

	checks := []struct {
		name   string
		labels map[string]string
		want   int64
	}{
		{"fimserve_admission_total", map[string]string{"outcome": "admitted"}, st.Admitted},
		{"fimserve_admission_total", map[string]string{"outcome": "shed"}, st.Shed},
		{"fimserve_admission_total", map[string]string{"outcome": "quota"}, st.QuotaRejected},
		{"fimserve_admission_total", map[string]string{"outcome": "coalesced"}, st.Deduplicated},
		{"fimserve_worker_panics_total", nil, st.WorkerPanics},
		{"fimserve_cache_requests_total", map[string]string{"outcome": "hit"}, st.CacheHits},
		{"fimserve_cache_requests_total", map[string]string{"outcome": "filter_hit"}, st.CacheFiltered},
		{"fimserve_cache_requests_total", map[string]string{"outcome": "miss"}, st.CacheMisses},
		{"fimserve_cache_bytes", nil, st.CacheBytes},
		{"fimserve_cache_evictions_total", nil, st.CacheEvictions},
		{"fimserve_pool_breaches_total", nil, st.PoolBreaches},
		{"fimserve_pool_cap_bytes", nil, st.PoolCap},
	}
	for _, c := range checks {
		v, ok := sc.Value(c.name, c.labels)
		if !ok || int64(v) != c.want {
			t.Errorf("%s%v: metrics %v (ok=%v), stats %d", c.name, c.labels, v, ok, c.want)
		}
	}
}

// TestRunCorrelationID: the registry run ID flows into the response,
// the run record, and every event on the SSE replay stream.
func TestRunCorrelationID(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, mr := postMine(t, ts, "abssup=2", uploadFIMI, nil)
	if resp.StatusCode != http.StatusOK || mr.RunID == 0 {
		t.Fatalf("mine: status %d, run_id %d", resp.StatusCode, mr.RunID)
	}

	ev, err := http.Get(fmt.Sprintf("%s/runs/%d/events", ts.URL, mr.RunID))
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Body.Close()
	body, err := io.ReadAll(ev.Body) // run finished: replay then EOF
	if err != nil {
		t.Fatal(err)
	}
	tag := fmt.Sprintf(`"run_id":%d`, mr.RunID)
	events := 0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "data: {") {
			continue
		}
		events++
		if !strings.Contains(line, tag) {
			t.Fatalf("event without run correlation id %d: %s", mr.RunID, line)
		}
	}
	if events == 0 {
		t.Fatalf("no events replayed:\n%s", body)
	}
}

// TestFlightRecorder: terminal runs and sampled timelines land in the
// ring, /debug/flight serves the dump, and drain writes it to disk.
func TestFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	s, ts := newTestServer(t, Config{FlightSampleEvery: 1, FlightPath: path})

	postMine(t, ts, "abssup=2", uploadFIMI, nil)
	// A different algorithm misses the cache, so a second run executes.
	postMine(t, ts, "abssup=2&algo=apriori", uploadFIMI, map[string]string{"X-Tenant": "t-b"})

	var fd FlightDump
	getJSON(t, ts.URL+"/debug/flight", &fd)
	if fd.Schema != flightSchema || fd.Reason != "request" {
		t.Fatalf("dump header = %+v", fd)
	}
	if len(fd.Runs) != 2 {
		t.Fatalf("dump holds %d runs, want 2: %+v", len(fd.Runs), fd.Runs)
	}
	if len(fd.Traces) != 2 {
		t.Fatalf("dump holds %d traces, want 2 (sample every 1)", len(fd.Traces))
	}
	for _, tr := range fd.Traces {
		if tr.RunID == 0 || len(tr.Spans) == 0 {
			t.Fatalf("empty sampled trace: %+v", tr)
		}
		found := false
		for _, ri := range fd.Runs {
			if ri.ID == tr.RunID {
				found = true
			}
		}
		if !found {
			t.Fatalf("trace run %d not among dumped runs", tr.RunID)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("drain did not write the flight dump: %v", err)
	}
	if !strings.Contains(string(b), flightSchema) || !strings.Contains(string(b), `"reason": "drain"`) {
		t.Fatalf("drain dump missing schema/reason:\n%.400s", b)
	}
}

// TestFlightRingBounds: the run ring holds only the last N records.
func TestFlightRingBounds(t *testing.T) {
	f := newFlightRecorder(3, 2, 1)
	for i := 1; i <= 5; i++ {
		f.record(RunInfo{ID: int64(i)})
	}
	d := f.dump("request")
	if len(d.Runs) != 3 || d.Runs[0].ID != 3 || d.Runs[2].ID != 5 {
		t.Fatalf("ring contents = %+v, want runs 3..5 oldest first", d.Runs)
	}
}

// TestSLOWatchdog: deterministic burn-rate evaluation with an injected
// clock — healthy traffic is ok, a sustained shed burst pages once both
// windows burn, and recovery returns to ok as the windows drain.
func TestSLOWatchdog(t *testing.T) {
	w := newSLOWatchdog(SLOConfig{
		ShedBudget:       0.1,
		LatencyObjective: time.Second,
		LatencyBudget:    0.1,
		ShortWindow:      5 * time.Second,
		LongWindow:       50 * time.Second,
		WarnBurn:         2,
		PageBurn:         5,
	})
	var sec int64
	w.now = func() time.Time { return time.Unix(sec, 0) }

	// 60s of healthy traffic: 10 admitted fast runs per second.
	for ; sec < 60; sec++ {
		for i := 0; i < 10; i++ {
			w.record(outcomeAdmitted, true, 10*time.Millisecond)
		}
	}
	if st, code := w.evaluate(); code != sloOK {
		t.Fatalf("healthy traffic judged %q: %+v", st.State, st)
	}

	// Sustained overload: every request shed. Shed fraction 1.0 against
	// a 0.1 budget is burn 10 — past PageBurn once the long window (50s)
	// is mostly bad.
	for ; sec < 120; sec++ {
		for i := 0; i < 10; i++ {
			w.record(outcomeShed, false, 0)
		}
	}
	st, code := w.evaluate()
	if code != sloPage {
		t.Fatalf("sustained shedding judged %q (want page): %+v", st.State, st)
	}
	if st.ShedBurnShort < 5 || st.ShedBurnLong < 5 {
		t.Fatalf("burns under page threshold: %+v", st)
	}

	// Recovery: the short window clears first (warn or ok), and after a
	// full long window of health the state is ok again.
	for ; sec < 180; sec++ {
		for i := 0; i < 10; i++ {
			w.record(outcomeAdmitted, true, 10*time.Millisecond)
		}
	}
	if st, code := w.evaluate(); code != sloOK {
		t.Fatalf("recovered traffic judged %q: %+v", st.State, st)
	}

	// Latency SLO: admitted runs over the objective burn its budget even
	// with zero shedding.
	for ; sec < 240; sec++ {
		for i := 0; i < 10; i++ {
			w.record(outcomeAdmitted, true, 2*time.Second)
		}
	}
	st, code = w.evaluate()
	if code != sloPage || st.LatencyBurnShort < 5 {
		t.Fatalf("slow runs judged %q (want page): %+v", st.State, st)
	}
}

// TestSLOSurfaced: the watchdog's state appears in /stats and /readyz
// without gating readiness.
func TestSLOSurfaced(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.SLO.State != "ok" {
		t.Fatalf("idle server SLO state %q, want ok", st.SLO.State)
	}
	var rd struct {
		Ready bool      `json:"ready"`
		SLO   SLOStatus `json:"slo"`
	}
	if resp := getJSON(t, ts.URL+"/readyz", &rd); resp.StatusCode != http.StatusOK || !rd.Ready || rd.SLO.State != "ok" {
		t.Fatalf("readyz = %+v", rd)
	}
}

// TestMetricsOverhead is the CI overhead gate: with FIMSERVE_OVERHEAD_GATE=1
// it asserts the metrics event tap costs < 2% wall time on a real
// mining cell. Reps interleave base and tapped runs (min of 5 each) so
// slow machine-state drift — thermal throttling, GC heap growth — lands
// on both sides instead of biasing whichever config runs second.
func TestMetricsOverhead(t *testing.T) {
	if os.Getenv("FIMSERVE_OVERHEAD_GATE") == "" {
		t.Skip("set FIMSERVE_OVERHEAD_GATE=1 to run the overhead gate")
	}
	db, err := fim.Dataset("mushroom", 1)
	if err != nil {
		t.Fatal(err)
	}
	// ProfileWindow -1: this gate isolates the event tap's cost; the
	// continuous profiler has its own gate (prof.TestProfilerOverhead).
	s := New(Config{ProfileWindow: -1})
	// Support 0.2 makes each rep a ~2s mine: long enough that the tap's
	// per-event cost is measurable against it, short enough that 10 reps
	// fit a CI step.
	abs := db.AbsoluteSupport(0.2)

	mineOnce := func(rep int, tapped bool) time.Duration {
		bc := export.NewBroadcast(0)
		opt := fim.Options{Algorithm: fim.Eclat, Workers: 2, Observer: bc}
		if tapped {
			opt.Observer = fim.MultiObserver(bc, s.met.tap())
			opt.RunID = int64(rep + 1)
		}
		start := time.Now()
		if _, err := fim.MineAbsolute(db, abs, opt); err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		bc.CloseStream()
		return d
	}

	best := func(a, b time.Duration) time.Duration {
		if b < a {
			return b
		}
		return a
	}
	base, tapped := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for rep := 0; rep < 5; rep++ {
		// Alternate which config goes first within the pair, too.
		if rep%2 == 0 {
			base = best(base, mineOnce(rep, false))
			tapped = best(tapped, mineOnce(rep, true))
		} else {
			tapped = best(tapped, mineOnce(rep, true))
			base = best(base, mineOnce(rep, false))
		}
	}
	ratio := float64(tapped) / float64(base)
	t.Logf("base %v, tapped %v, ratio %.4f", base, tapped, ratio)
	if ratio > 1.02 {
		t.Fatalf("metrics tap overhead %.2f%% exceeds the 2%% gate (base %v, tapped %v)",
			(ratio-1)*100, base, tapped)
	}
}
