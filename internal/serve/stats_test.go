package serve

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strings"
	"sync"
	"testing"

	fim "repro"
	"repro/internal/obs"
	"repro/internal/obs/export"
)

// TestStatsCountsTraffic: after known traffic every /stats counter
// holds its exact value — admission, the cache's hits, filtered hits,
// misses and bytes, and the pool.
func TestStatsCountsTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	if resp, mr := postMine(t, ts, "abssup=2", uploadFIMI, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: status %d, %+v", resp.StatusCode, mr)
	}
	postMine(t, ts, "abssup=2", uploadFIMI, nil)                                  // cache hit
	postMine(t, ts, "abssup=3", uploadFIMI, map[string]string{"X-Tenant": "t-b"}) // filtered hit
	postMine(t, ts, "abssup=4", uploadFIMI, map[string]string{"X-Tenant": "t-c"}) // filtered hit
	postMine(t, ts, "", uploadFIMI, nil)                                          // bad request (no support)

	db, err := fim.ReadFIMI("direct", strings.NewReader(uploadFIMI))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fim.MineAbsolute(db, 2, fim.Options{Algorithm: fim.Eclat, Representation: fim.Diffset})
	if err != nil {
		t.Fatal(err)
	}

	var got Stats
	getJSON(t, ts.URL+"/stats", &got)
	want := Stats{
		Admitted:      1,
		CacheHits:     1,
		CacheFiltered: 2,
		CacheMisses:   1,
		CacheBytes:    entryBytes(direct.Decoded()),
		PoolPeak:      got.PoolPeak, // the run's own high-water mark
		PoolCap:       1 << 30,
		QueueCap:      8,
	}
	if got != want {
		t.Fatalf("/stats = %+v\nwant      %+v", got, want)
	}
	if got.PoolPeak <= 0 {
		t.Fatalf("pool peak %d after a run, want > 0", got.PoolPeak)
	}
}

// TestStatsNeverGoBackwards: a second /stats read after more traffic
// never shows a counter lower than the first, the cached requests add
// hits and no admission, and /metrics is not served.
func TestStatsNeverGoBackwards(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	if resp, mr := postMine(t, ts, "abssup=2", uploadFIMI, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: status %d, %+v", resp.StatusCode, mr)
	}
	var first Stats
	getJSON(t, ts.URL+"/stats", &first)
	if first.Admitted != 1 || first.CacheMisses != 1 || first.CacheHits != 0 || first.CacheFiltered != 0 {
		t.Fatalf("/stats after one run = %+v, want 1 admitted, 1 miss, no hits", first)
	}

	postMine(t, ts, "abssup=2", uploadFIMI, nil)                                  // cache hit
	postMine(t, ts, "abssup=3", uploadFIMI, map[string]string{"X-Tenant": "t-b"}) // filtered hit
	postMine(t, ts, "abssup=4", uploadFIMI, map[string]string{"X-Tenant": "t-c"}) // filtered hit

	var second Stats
	getJSON(t, ts.URL+"/stats", &second)
	counters := []struct {
		name          string
		before, after int64
	}{
		{"admitted", first.Admitted, second.Admitted},
		{"shed", first.Shed, second.Shed},
		{"quota_rejected", first.QuotaRejected, second.QuotaRejected},
		{"deduplicated", first.Deduplicated, second.Deduplicated},
		{"worker_panics", first.WorkerPanics, second.WorkerPanics},
		{"pool_breaches", first.PoolBreaches, second.PoolBreaches},
		{"cache_hits", first.CacheHits, second.CacheHits},
		{"cache_filtered_hits", first.CacheFiltered, second.CacheFiltered},
		{"cache_misses", first.CacheMisses, second.CacheMisses},
		{"cache_evictions", first.CacheEvictions, second.CacheEvictions},
		{"pool_peak_bytes", first.PoolPeak, second.PoolPeak},
	}
	for _, c := range counters {
		if c.after < c.before {
			t.Errorf("%s went backwards: %d then %d", c.name, c.before, c.after)
		}
	}
	if second.CacheHits != 1 || second.CacheFiltered != 2 || second.Admitted != first.Admitted {
		t.Fatalf("/stats after three cached requests = %+v, want 1 hit, 2 filtered hits, no new admission", second)
	}

	if resp := getJSON(t, ts.URL+"/metrics", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics: status %d, want 404", resp.StatusCode)
	}
}

// runKernelCounters reads a finished run's one kernel_counters event
// from its /runs/{id}/events replay, with the arena hit/miss split
// folded into its sum (the split varies between identical runs).
func runKernelCounters(t *testing.T, url string, id int64) map[string]int64 {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/runs/%d/events", url, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var data []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			data = append(data, rest)
		}
	}
	events, err := export.DecodeLines(strings.NewReader(strings.Join(data, "\n")))
	if err != nil {
		t.Fatalf("run %d: decoding SSE data lines: %v", id, err)
	}
	var m map[string]int64
	n := 0
	for _, e := range events {
		if e.Type == obs.KernelCounters {
			m = maps.Clone(e.Counters)
			n++
		}
	}
	if n != 1 {
		t.Fatalf("run %d: %d kernel_counters events, want 1", id, n)
	}
	m["arena_hits+misses"] = m["arena_hits"] + m["arena_misses"]
	delete(m, "arena_hits")
	delete(m, "arena_misses")
	return m
}

// TestKernelCountersUnderOverlap: a served run's kernel counters are
// exact even when another run overlaps it. Each query is mined solo
// first; the pair, held until both occupy a worker slot, must then
// report the same counters as their solo runs, read from each run's
// own event replay.
func TestKernelCountersUnderOverlap(t *testing.T) {
	gate := make(chan struct{})
	gateSentinelRuns(t, gate)
	s, ts := newTestServer(t, Config{Workers: 2, PerTenant: 8, CacheBytes: -1})

	// Distinct thresholds keep the pair out of each other's
	// single-flight join.
	queries := []string{"abssup=2&algo=eclat&rep=diffset", "abssup=3&algo=eclat&rep=diffset"}
	solo := make([]map[string]int64, len(queries))
	for i, q := range queries {
		resp, mr := postMine(t, ts, q, uploadFIMI, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solo %s: status %d, %+v", q, resp.StatusCode, mr)
		}
		solo[i] = runKernelCounters(t, ts.URL, mr.RunID)
		if solo[i]["nodes_built_diffset"] <= 0 {
			t.Fatalf("solo %s: counters %v, want nodes_built_diffset > 0", q, solo[i])
		}
	}

	ids := make([]int64, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, mr := postMine(t, ts, fmt.Sprintf("%s&max-itemsets=%d", q, sentinelItemsets), uploadFIMI, nil)
			if resp.StatusCode != http.StatusOK || mr.Incomplete {
				t.Errorf("overlapped %s: status %d, %+v", q, resp.StatusCode, mr)
			}
			ids[i] = mr.RunID
		}()
	}
	waitFor(t, "both runs to hold a slot", func() bool { return s.adm.runningLen() == 2 })
	close(gate)
	wg.Wait()
	for i, q := range queries {
		if got := runKernelCounters(t, ts.URL, ids[i]); !maps.Equal(got, solo[i]) {
			t.Errorf("overlapped %s: counters %v, want the solo run's %v", q, got, solo[i])
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

// TestServedRunCarriesProfileLabels: a served run executes under its
// pprof labels, and the daemon's own /debug/pprof/ route shows them. The
// run is held at a chunk boundary by the fault hook while the goroutine
// profile is taken, so its workers are live and labeled.
func TestServedRunCarriesProfileLabels(t *testing.T) {
	gate := make(chan struct{})
	gateSentinelRuns(t, gate)
	s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: -1})

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, mr := postMine(t, ts, fmt.Sprintf("abssup=2&max-itemsets=%d", sentinelItemsets),
			uploadFIMI, map[string]string{"X-Tenant": "label-tenant"})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("gated run: status %d, %+v", resp.StatusCode, mr)
		}
	}()
	defer func() { close(gate); <-done }()
	waitFor(t, "the run to hold the slot", func() bool { return s.adm.runningLen() == 1 })
	var runs struct {
		Live []RunInfo `json:"live"`
	}
	getJSON(t, ts.URL+"/runs", &runs)
	if len(runs.Live) != 1 || runs.Live[0].ID == 0 {
		t.Fatalf("live runs = %+v, want the one gated run", runs.Live)
	}

	resp, err := http.Get(ts.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("goroutine profile: status %d, err %v", resp.StatusCode, err)
	}
	id := fmt.Sprintf(`"fim_run_id":"%d"`, runs.Live[0].ID)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# labels: ") &&
			strings.Contains(line, id) && strings.Contains(line, `"fim_tenant":"label-tenant"`) {
			return
		}
	}
	t.Fatalf("no goroutine labeled %s and fim_tenant=label-tenant in:\n%s", id, body)
}
