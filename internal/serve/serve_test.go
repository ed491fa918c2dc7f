package serve

// Acceptance tests for the serving layer: the admission ladder
// (cache -> queue -> quota -> budget -> degrade), single-flight
// deduplication, SSE event streams, and graceful drain — driven through
// real HTTP requests against an httptest server.
//
// Several tests steer run timing through the scheduler's fault hook,
// which is process-global; none of them use t.Parallel.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	fim "repro"
	"repro/internal/obs/export"
	"repro/internal/sched"
)

// uploadFIMI is the tiny shared upload dataset: 8 transactions over 4
// items, enough structure for every algorithm to find 2- and
// 3-itemsets.
const uploadFIMI = "1 2 3\n1 2\n1 3\n2 3\n1 2 3\n1 2 3 4\n2 3 4\n1 4\n"

// sentinelItemsets is the budget value the fault hook matches to pick
// out a specific run under test: large enough never to trip the
// itemsets budget, distinctive enough never to occur by accident.
const sentinelItemsets = 999999937

// gateSentinelRuns installs a fault hook that blocks every scheduler
// chunk of runs carrying the sentinel itemsets budget until gate is
// closed. Other runs are untouched.
func gateSentinelRuns(t *testing.T, gate chan struct{}) {
	t.Helper()
	sched.SetFaultHook(func(fc sched.FaultContext) {
		if fc.Control.MaxItemsets() != sentinelItemsets {
			return
		}
		select {
		case <-gate:
		case <-time.After(10 * time.Second):
		}
	})
	t.Cleanup(func() { sched.SetFaultHook(nil) })
}

// panicItemsets marks runs the fault hook kills with an injected worker
// panic (distinct from sentinelItemsets, which gates).
const panicItemsets = 999999893

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postMine(t *testing.T, ts *httptest.Server, query, body string, hdr map[string]string) (*http.Response, mineResponse) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/mine?"+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr mineResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatalf("decoding /mine response: %v", err)
	}
	return resp, mr
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMineUploadCacheAndEvents walks the happy path end to end: an
// uploaded dataset mines once, the identical request is a cache hit, a
// higher threshold is answered by filtering the cached lower-threshold
// run, and the finished run's SSE stream replays a valid event stream.
func TestMineUploadCacheAndEvents(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, mr := postMine(t, ts, "abssup=2&algo=eclat&rep=tidset", uploadFIMI, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: status %d (%+v)", resp.StatusCode, mr)
	}
	if mr.Cached || mr.Itemsets == 0 || mr.RunID == 0 || mr.Incomplete {
		t.Fatalf("first mine: %+v", mr)
	}

	// Cross-check against a direct library run.
	db, err := fim.ReadFIMI("direct", strings.NewReader(uploadFIMI))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fim.MineAbsolute(db, 2, fim.Options{Algorithm: fim.Eclat, Representation: fim.Tidset, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Itemsets != direct.Len() {
		t.Fatalf("served %d itemsets, direct run found %d", mr.Itemsets, direct.Len())
	}

	// Identical request: exact cache hit, no new run.
	resp, mr2 := postMine(t, ts, "abssup=2&algo=eclat&rep=tidset", uploadFIMI, nil)
	if resp.StatusCode != http.StatusOK || !mr2.Cached || mr2.Itemsets != mr.Itemsets {
		t.Fatalf("repeat mine not a cache hit: status %d, %+v", resp.StatusCode, mr2)
	}

	// Higher threshold: answered by filtering the cached lower-minsup
	// run, supports exact.
	resp, mr3 := postMine(t, ts, "abssup=4&algo=eclat&rep=tidset", uploadFIMI, nil)
	if resp.StatusCode != http.StatusOK || !mr3.Cached {
		t.Fatalf("higher-minsup request not filtered from cache: status %d, %+v", resp.StatusCode, mr3)
	}
	direct4, err := fim.MineAbsolute(db, 4, fim.Options{Algorithm: fim.Eclat, Representation: fim.Tidset, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mr3.Itemsets != direct4.Len() {
		t.Fatalf("filtered answer has %d itemsets, direct run at minsup 4 found %d", mr3.Itemsets, direct4.Len())
	}
	want := direct4.Decoded()
	if len(mr3.Sets) != len(want) {
		t.Fatalf("filtered answer returned %d sets, want %d", len(mr3.Sets), len(want))
	}
	for i, set := range mr3.Sets {
		if set.Support != want[i].Support || len(set.Items) != len(want[i].Items) {
			t.Fatalf("filtered set %d = %+v, want %+v", i, set, want[i])
		}
	}

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.CacheHits != 1 || st.CacheFiltered != 1 || st.Admitted != 1 {
		t.Fatalf("stats after hit+filtered: %+v", st)
	}

	// The finished run's SSE stream replays a complete, valid stream.
	eresp, err := http.Get(fmt.Sprintf("%s/runs/%d/events", ts.URL, mr.RunID))
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var data []string
	sc := bufio.NewScanner(eresp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			data = append(data, rest)
		}
	}
	events, err := export.DecodeLines(strings.NewReader(strings.Join(data, "\n")))
	if err != nil {
		t.Fatalf("decoding SSE data lines: %v", err)
	}
	if err := export.ValidateEvents(events); err != nil {
		t.Fatalf("run %d SSE stream invalid: %v", mr.RunID, err)
	}

	// Registry: the run is on the recent list with its terminal record.
	var runs struct{ Live, Recent []RunInfo }
	getJSON(t, ts.URL+"/runs", &runs)
	if len(runs.Live) != 0 || len(runs.Recent) != 1 {
		t.Fatalf("runs = %+v", runs)
	}
	if r := runs.Recent[0]; r.HTTPStatus != 200 || r.State != "done" || r.Itemsets != mr.Itemsets {
		t.Fatalf("recent run record = %+v", r)
	}
	_ = s
}

// TestMineBuiltinDataset mines a built-in by name and cross-checks the
// itemset count against a direct library run.
func TestMineBuiltinDataset(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, mr := postMine(t, ts, "dataset=chess&scale=0.2&support=0.8&algo=apriori&rep=bitvector", "", nil)
	if resp.StatusCode != http.StatusOK || mr.Itemsets == 0 {
		t.Fatalf("builtin mine: status %d, %+v", resp.StatusCode, mr)
	}
	db, err := fim.Dataset("chess", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fim.Mine(db, 0.8, fim.Options{Algorithm: fim.Apriori, Representation: fim.Bitvector, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Itemsets != direct.Len() {
		t.Fatalf("served %d itemsets, direct run found %d", mr.Itemsets, direct.Len())
	}
	if mr.Dataset != "chess@0.2" {
		t.Fatalf("dataset label = %q", mr.Dataset)
	}
}

// TestMineBadRequests: every malformed request fails fast with 400 and
// a JSON error, before consuming any mining capacity.
func TestMineBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxUploadBytes: 64,
		UploadLimits:   fim.FIMILimits{MaxTransactions: 4},
	})
	cases := []struct {
		name, query, body string
		want              int
	}{
		{"missing support", "dataset=chess", "", http.StatusBadRequest},
		{"bad algo", "dataset=chess&support=0.9&algo=magic", "", http.StatusBadRequest},
		{"bad rep", "dataset=chess&support=0.9&rep=linkedlist", "", http.StatusBadRequest},
		{"unknown dataset", "dataset=nosuch&support=0.9", "", http.StatusBadRequest},
		{"support over 1", "dataset=chess&support=1.5", "", http.StatusBadRequest},
		{"zero abssup", "dataset=chess&abssup=0", "", http.StatusBadRequest},
		{"bad scale", "dataset=chess&scale=-1&support=0.9", "", http.StatusBadRequest},
		{"empty body no dataset", "support=0.5", "", http.StatusBadRequest},
		{"malformed upload", "support=0.5", "1 2\nnope\n", http.StatusBadRequest},
		{"upload over parse limits", "support=0.5", "1\n2\n3\n4\n5\n", http.StatusBadRequest},
		{"upload over byte cap", "support=0.5", strings.Repeat("1 2 3\n", 20), http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, _ := postMine(t, ts, c.query, c.body, nil)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Admitted != 0 {
		t.Fatalf("bad requests consumed capacity: %+v", st)
	}
	_ = s
}

// TestTenantQuota: with a per-tenant quota of 1, a tenant's second
// concurrent request is rejected 429 with Retry-After while another
// tenant still gets in.
func TestTenantQuota(t *testing.T) {
	gate := make(chan struct{})
	gateSentinelRuns(t, gate)
	s, ts := newTestServer(t, Config{Workers: 2, PerTenant: 1})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, mr := postMine(t, ts,
			fmt.Sprintf("abssup=2&max-itemsets=%d", sentinelItemsets),
			uploadFIMI, map[string]string{"X-Tenant": "alice"})
		if resp.StatusCode != http.StatusOK || mr.Incomplete {
			t.Errorf("alice's first run: status %d, %+v", resp.StatusCode, mr)
		}
	}()
	waitFor(t, "alice's run to hold a slot", func() bool { return s.adm.runningLen() == 1 })

	// Second alice request: over quota. A different threshold avoids the
	// single-flight join (which would legitimately share the first run).
	resp, mr := postMine(t, ts, "abssup=3", uploadFIMI, map[string]string{"X-Tenant": "alice"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: status %d, %+v", resp.StatusCode, mr)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota rejection missing Retry-After")
	}
	if !strings.Contains(mr.Error, "quota") {
		t.Fatalf("quota rejection error = %q", mr.Error)
	}

	// Bob is unaffected by alice's quota.
	resp, mr = postMine(t, ts, "abssup=3", uploadFIMI, map[string]string{"X-Tenant": "bob"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob's run: status %d, %+v", resp.StatusCode, mr)
	}

	close(gate)
	wg.Wait()
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.QuotaRejected != 1 {
		t.Fatalf("quota_rejected = %d, want 1", st.QuotaRejected)
	}
}

// TestQueueShed: with one worker and a queue of one, the third
// concurrent request is shed with 429 + Retry-After, and /readyz
// reports not-ready while the queue is full.
func TestQueueShed(t *testing.T) {
	gate := make(chan struct{})
	gateSentinelRuns(t, gate)
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, PerTenant: 8})

	var wg sync.WaitGroup
	run := func(abssup int, sentinel bool) {
		defer wg.Done()
		q := fmt.Sprintf("abssup=%d", abssup)
		if sentinel {
			q += fmt.Sprintf("&max-itemsets=%d", sentinelItemsets)
		}
		resp, mr := postMine(t, ts, q, uploadFIMI, nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("abssup=%d: status %d, %+v", abssup, resp.StatusCode, mr)
		}
	}
	wg.Add(1)
	go run(2, true) // occupies the single running slot, blocked on the gate
	waitFor(t, "a run to hold the slot", func() bool { return s.adm.runningLen() == 1 })
	wg.Add(1)
	go run(3, false) // occupies the single queue slot
	waitFor(t, "a run to queue", func() bool { return s.adm.queueLen() == 1 })

	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a full queue: status %d", resp.StatusCode)
	}

	resp, mr := postMine(t, ts, "abssup=4", uploadFIMI, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload request: status %d, %+v", resp.StatusCode, mr)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if mr.StopReason != "shed" {
		t.Fatalf("shed stop_reason = %q", mr.StopReason)
	}

	close(gate)
	wg.Wait()
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Shed != 1 || st.Admitted != 2 {
		t.Fatalf("stats after shed: %+v", st)
	}
	// The shed run is on record with its cause.
	var runs struct{ Live, Recent []RunInfo }
	getJSON(t, ts.URL+"/runs", &runs)
	shedSeen := false
	for _, r := range runs.Recent {
		if r.State == "shed" && r.HTTPStatus == http.StatusTooManyRequests {
			shedSeen = true
		}
	}
	if !shedSeen {
		t.Fatalf("no shed record in recent runs: %+v", runs.Recent)
	}
}

// TestSingleFlight: identical concurrent requests share one mining run;
// both get complete answers, and only one run was admitted.
func TestSingleFlight(t *testing.T) {
	gate := make(chan struct{})
	gateSentinelRuns(t, gate)
	s, ts := newTestServer(t, Config{Workers: 2})

	q := fmt.Sprintf("abssup=2&max-itemsets=%d", sentinelItemsets)
	var wg sync.WaitGroup
	results := make([]mineResponse, 2)
	statuses := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, mr := postMine(t, ts, q, uploadFIMI, nil)
			statuses[i], results[i] = resp.StatusCode, mr
		}(i)
	}
	waitFor(t, "the leader to start running", func() bool { return s.adm.runningLen() == 1 })
	waitFor(t, "the follower to join the flight", func() bool {
		return s.flights.joined() == 1
	})
	close(gate)
	wg.Wait()

	for i := 0; i < 2; i++ {
		if statuses[i] != http.StatusOK || results[i].Itemsets == 0 {
			t.Fatalf("request %d: status %d, %+v", i, statuses[i], results[i])
		}
	}
	if results[0].Itemsets != results[1].Itemsets {
		t.Fatalf("deduplicated requests disagree: %d vs %d itemsets", results[0].Itemsets, results[1].Itemsets)
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Admitted != 1 || st.Deduplicated != 1 {
		t.Fatalf("admitted = %d, deduplicated = %d; want 1 and 1 (single-flight)", st.Admitted, st.Deduplicated)
	}
}

// TestSingleFlightKeysBudgets: a request never joins a flight whose
// leader asked for different budgets. The leader's itemsets budget of
// 3 stops it early; it is held at a chunk boundary while an unbudgeted
// request for the same problem arrives, and that request must run on
// its own and answer complete.
func TestSingleFlightKeysBudgets(t *testing.T) {
	gate := make(chan struct{})
	sched.SetFaultHook(func(fc sched.FaultContext) {
		if fc.Control.MaxItemsets() == 3 {
			select {
			case <-gate:
			case <-time.After(10 * time.Second):
			}
		}
	})
	t.Cleanup(func() { sched.SetFaultHook(nil) })
	s, ts := newTestServer(t, Config{Workers: 2, CacheBytes: -1})

	leaderDone := make(chan mineResponse, 1)
	go func() {
		_, mr := postMine(t, ts, "abssup=2&max-itemsets=3", uploadFIMI, nil)
		leaderDone <- mr
	}()
	waitFor(t, "the budgeted leader to hold a slot", func() bool { return s.adm.runningLen() == 1 })

	followerDone := make(chan mineResponse, 1)
	var status int
	go func() {
		resp, mr := postMine(t, ts, "abssup=2", uploadFIMI, nil)
		status = resp.StatusCode
		followerDone <- mr
	}()
	var follower mineResponse
	var joined bool
	waitFor(t, "the unbudgeted request to finish or join the flight", func() bool {
		select {
		case follower = <-followerDone:
			return true
		default:
		}
		var st Stats
		getJSON(t, ts.URL+"/stats", &st)
		joined = st.Deduplicated > 0
		return joined
	})
	close(gate)
	if joined {
		follower = <-followerDone
	}
	if leader := <-leaderDone; !leader.Incomplete || leader.StopReason != "budget:itemsets" {
		t.Errorf("budgeted leader = %+v, want a budget:itemsets stop", leader)
	}

	db, err := fim.ReadFIMI("direct", strings.NewReader(uploadFIMI))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fim.MineAbsolute(db, 2, fim.Options{Algorithm: fim.Eclat, Representation: fim.Diffset, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if joined || status != http.StatusOK || follower.Incomplete || follower.Itemsets != direct.Len() {
		t.Fatalf("unbudgeted request (joined the flight: %v): status %d, %+v; want complete with %d itemsets",
			joined, status, follower, direct.Len())
	}
}

// TestSingleFlightOutlivesLeaderClient: a leader whose client goes away
// still answers the followers waiting on its run. The leader is held at
// a chunk boundary, a follower joins, and the leader's client cancels:
// the follower must get the complete answer. Once every waiting client
// has gone, the run is cancelled and ends canceled in /runs.
func TestSingleFlightOutlivesLeaderClient(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheBytes: -1})
	q := fmt.Sprintf("abssup=2&max-itemsets=%d", sentinelItemsets)
	type answer struct {
		status int
		mr     mineResponse
	}
	// post sends the request under ctx; a client that gave up answers
	// with status 0.
	post := func(ctx context.Context) <-chan answer {
		done := make(chan answer, 1)
		go func() {
			var a answer
			req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/mine?"+q, strings.NewReader(uploadFIMI))
			if err == nil {
				if resp, err := http.DefaultClient.Do(req); err == nil {
					a.status = resp.StatusCode
					json.NewDecoder(resp.Body).Decode(&a.mr)
					resp.Body.Close()
				}
			}
			done <- a
		}()
		return done
	}
	flights := func() (n, waiters int) {
		s.flights.mu.Lock()
		defer s.flights.mu.Unlock()
		for _, f := range s.flights.flights {
			n, waiters = n+1, waiters+f.waiters
		}
		return n, waiters
	}

	gate := make(chan struct{})
	gateSentinelRuns(t, gate)
	leaderCtx, leaderGone := context.WithCancel(context.Background())
	defer leaderGone()
	leader := post(leaderCtx)
	waitFor(t, "the leader to start running", func() bool { return s.adm.runningLen() == 1 })
	follower := post(context.Background())
	waitFor(t, "the follower to join the flight", func() bool { return s.flights.joined() == 1 })
	leaderGone()
	waitFor(t, "the server to see the leader's client go", func() bool {
		_, w := flights()
		return w == 1
	})
	close(gate)
	got := <-follower
	<-leader

	db, err := fim.ReadFIMI("direct", strings.NewReader(uploadFIMI))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fim.MineAbsolute(db, 2, fim.Options{Algorithm: fim.Eclat, Representation: fim.Diffset, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.status != http.StatusOK || got.mr.Incomplete || got.mr.Itemsets != direct.Len() {
		t.Fatalf("follower after the leader's client left: status %d, %+v; want complete with %d itemsets",
			got.status, got.mr, direct.Len())
	}

	// Every waiter leaves: nobody is left to answer, so the run stops.
	gate = make(chan struct{})
	gateSentinelRuns(t, gate)
	leaderCtx, leaderGone = context.WithCancel(context.Background())
	defer leaderGone()
	followerCtx, followerGone := context.WithCancel(context.Background())
	defer followerGone()
	leader = post(leaderCtx)
	waitFor(t, "the second leader to start running", func() bool { return s.adm.runningLen() == 1 })
	follower = post(followerCtx)
	waitFor(t, "the second follower to join the flight", func() bool { return s.flights.joined() == 2 })
	leaderGone()
	followerGone()
	waitFor(t, "the abandoned flight to leave the group", func() bool {
		n, _ := flights()
		return n == 0
	})
	close(gate)
	<-leader
	<-follower
	var runs struct {
		Live   []RunInfo `json:"live"`
		Recent []RunInfo `json:"recent"`
	}
	waitFor(t, "the abandoned run to finish", func() bool {
		getJSON(t, ts.URL+"/runs", &runs)
		return len(runs.Live) == 0 && len(runs.Recent) == 2
	})
	if r := runs.Recent[0]; r.StopReason != "canceled" || !r.Incomplete {
		t.Fatalf("run every client left = %+v, want stop_reason canceled", r)
	}
	if r := runs.Recent[1]; r.StopReason != "" || r.Incomplete || r.Itemsets != direct.Len() {
		t.Fatalf("run the follower kept = %+v, want complete with %d itemsets", r, direct.Len())
	}
}

// TestWorkerPanicAnswers500: a worker panic is contained to its run,
// which answers 500 with stop_reason worker-panic, leaves a terminal
// registry record with that status, and counts once in /stats.
func TestWorkerPanicAnswers500(t *testing.T) {
	sched.SetFaultHook(func(fc sched.FaultContext) {
		if fc.Control.MaxItemsets() == panicItemsets {
			panic("injected fault: worker panic test")
		}
	})
	t.Cleanup(func() { sched.SetFaultHook(nil) })
	_, ts := newTestServer(t, Config{})

	resp, mr := postMine(t, ts, fmt.Sprintf("abssup=2&max-itemsets=%d", panicItemsets), uploadFIMI, nil)
	if resp.StatusCode != http.StatusInternalServerError || mr.StopReason != "worker-panic" || mr.RunID == 0 {
		t.Fatalf("panic run: status %d, %+v", resp.StatusCode, mr)
	}
	var ri RunInfo
	if resp := getJSON(t, fmt.Sprintf("%s/runs/%d", ts.URL, mr.RunID), &ri); resp.StatusCode != http.StatusOK {
		t.Fatalf("run record: status %d", resp.StatusCode)
	}
	if ri.State != "done" || ri.HTTPStatus != http.StatusInternalServerError || ri.StopReason != "worker-panic" {
		t.Fatalf("run record = %+v, want done with http_status 500 and stop_reason worker-panic", ri)
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.WorkerPanics != 1 {
		t.Fatalf("worker_panics = %d, want 1", st.WorkerPanics)
	}
}

// TestDrainGraceful: draining stops admission immediately, flips
// /readyz, budget-stops the straggler after the grace period, and every
// in-flight request ends with a classified partial answer.
func TestDrainGraceful(t *testing.T) {
	gate := make(chan struct{})
	gateSentinelRuns(t, gate)
	s, ts := newTestServer(t, Config{Workers: 1, DrainGrace: 50 * time.Millisecond})

	var wg sync.WaitGroup
	wg.Add(1)
	var drainedStatus int
	var drainedResp mineResponse
	go func() {
		defer wg.Done()
		resp, mr := postMine(t, ts,
			fmt.Sprintf("dataset=chess&scale=0.2&support=0.5&max-itemsets=%d", sentinelItemsets),
			"", nil)
		drainedStatus, drainedResp = resp.StatusCode, mr
	}()
	waitFor(t, "the run to hold the slot", func() bool { return s.adm.runningLen() == 1 })

	drainDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { drainDone <- s.Drain(ctx) }()
	waitFor(t, "draining to start", s.Draining)

	// New work is refused the moment draining starts.
	resp, _ := postMine(t, ts, "abssup=2", uploadFIMI, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mine while draining: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d", resp.StatusCode)
	}

	// Let the grace period lapse so Drain cancels the straggler, then
	// release it; it unwinds at its next chunk boundary.
	time.Sleep(100 * time.Millisecond)
	close(gate)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	if drainedStatus != http.StatusOK {
		t.Fatalf("drained run: status %d, %+v", drainedStatus, drainedResp)
	}
	if !drainedResp.Incomplete || drainedResp.StopReason != "canceled" {
		t.Fatalf("drained run not a classified partial: %+v", drainedResp)
	}

	// The shutdown report carries the drained run's record.
	rep := s.ShutdownReport()
	if rep.Schema != "fimserve-report/v1" || len(rep.Live) != 0 {
		t.Fatalf("shutdown report = %+v", rep)
	}
	found := false
	for _, r := range rep.Recent {
		if r.StopReason == "canceled" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no canceled run in shutdown report: %+v", rep.Recent)
	}
}

// TestCacheEviction: a cache budget smaller than two entries keeps the
// more recently used one.
func TestCacheEviction(t *testing.T) {
	c := newResultCache(400)
	big := make([]fim.ItemsetCount, 8) // entryBytes = 8*24 + 64 = 256
	c.store(cacheKey{dataset: "a"}, 2, big, 1)
	c.store(cacheKey{dataset: "b"}, 2, big, 1)
	if _, _, ok := c.lookup(cacheKey{dataset: "b"}, 2); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, _, ok := c.lookup(cacheKey{dataset: "a"}, 2); ok {
		t.Fatal("older entry survived a budget that fits only one")
	}
	_, _, _, bytes, evictions := c.stats()
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if bytes > 400 {
		t.Fatalf("cache bytes %d over budget", bytes)
	}
}

// TestCacheDisabled: a negative budget turns the cache off entirely.
func TestCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	c.store(cacheKey{dataset: "a"}, 2, make([]fim.ItemsetCount, 2), 1)
	if _, _, ok := c.lookup(cacheKey{dataset: "a"}, 2); ok {
		t.Fatal("disabled cache served a hit")
	}
}

// TestUploadBodyIsHashKeyed: byte-identical uploads share a cache
// entry; different bytes do not.
func TestUploadBodyIsHashKeyed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, mr1 := postMine(t, ts, "abssup=2", uploadFIMI, nil)
	_, mr2 := postMine(t, ts, "abssup=2", uploadFIMI, nil)
	if !mr2.Cached || mr1.Dataset != mr2.Dataset {
		t.Fatalf("identical upload not cache-hit: %+v vs %+v", mr1, mr2)
	}
	_, mr3 := postMine(t, ts, "abssup=2", uploadFIMI+"4\n", nil)
	if mr3.Cached {
		t.Fatalf("different upload bytes served from cache: %+v", mr3)
	}
}
