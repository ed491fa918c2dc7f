package serve

// Incident-engine acceptance tests: the deterministic overload soak
// that pages the SLO watchdog and must yield exactly one schema-valid
// incident bundle whose CPU profile carries the offending run's pprof
// labels; the panic- and cooldown-triggered paths; the flight
// recorder's .panic side dump; and ValidateIncident's rejections.
//
// Like the rest of the serve tests these steer run timing through the
// scheduler's process-global fault hook, so none use t.Parallel.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/prof"
	"repro/internal/sched"
)

// panicItemsets marks runs the fault hook should kill with an injected
// worker panic (distinct from sentinelItemsets, which gates).
const panicItemsets = 999999893

// panicSentinelRuns installs a fault hook that panics inside the first
// scheduler chunk of any run carrying the panic sentinel budget.
func panicSentinelRuns(t *testing.T) {
	t.Helper()
	sched.SetFaultHook(func(fc sched.FaultContext) {
		if fc.Control.MaxItemsets() == panicItemsets {
			panic("injected fault: incident test")
		}
	})
	t.Cleanup(func() { sched.SetFaultHook(nil) })
}

// TestIncidentOnSLOPage is the acceptance soak for the incident engine:
// a deterministic overload (one admitted victim run, plugged worker and
// queue, then a flood of sheds) drives the shed burn rate straight from
// ok to page, which must capture exactly one bundle — the cooldown
// suppresses everything after it, including a subsequent worker panic —
// and that bundle's CPU profile must contain samples labeled with the
// victim run's fim_run_id and tenant.
func TestIncidentOnSLOPage(t *testing.T) {
	gate := make(chan struct{})
	gateSentinelRuns(t, gate)
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		PerTenant:  8,
		CacheBytes: -1, // every request must reach admission, not the cache
		// Opt in to the continuous profiler: the bundle must carry the CPU
		// window covering the victim run.
		ProfileWindow:    time.Minute,
		IncidentCooldown: time.Hour,
		IncidentDir:      dir,
	})

	// The victim: the only admitted, completed run before the flood. Its
	// mining work is what the incident's CPU window must attribute.
	resp, victim := postMine(t, ts,
		"dataset=mushroom&support=0.25&algo=eclat&rep=tidset", "",
		map[string]string{"X-Tenant": "prof-victim"})
	if resp.StatusCode != http.StatusOK || victim.RunID == 0 || victim.Incomplete {
		t.Fatalf("victim run: status %d, %+v", resp.StatusCode, victim)
	}

	// Plug the single worker slot and the single queue slot with gated
	// sentinel runs; they stay in flight (no terminal outcome) until the
	// gate opens, so the watchdog's windows hold exactly one admitted
	// outcome when the sheds start.
	var wg sync.WaitGroup
	for _, abssup := range []int{2, 3} {
		wg.Add(1)
		go func(abssup int) {
			defer wg.Done()
			resp, mr := postMine(t, ts,
				fmt.Sprintf("abssup=%d&max-itemsets=%d", abssup, sentinelItemsets),
				uploadFIMI, map[string]string{"X-Tenant": "plug"})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("plug abssup=%d: status %d, %+v", abssup, resp.StatusCode, mr)
			}
		}(abssup)
	}
	waitFor(t, "the worker and queue slots to fill", func() bool {
		return s.adm.runningLen() == 1 && s.adm.queueLen() == 1
	})

	// The flood: distinct problems, all shed. With one admitted outcome
	// on record, every prefix of the flood puts the shed fraction at or
	// above 1/2 — burn >= 0.5/0.05 = 10 = PageBurn in both windows — so
	// the watchdog's next tick transitions ok→page directly, never
	// pausing in warn.
	for i := 0; i < 6; i++ {
		resp, mr := postMine(t, ts, fmt.Sprintf("abssup=%d", 10+i), uploadFIMI, nil)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("flood %d: status %d, %+v (want shed)", i, resp.StatusCode, mr)
		}
	}
	waitFor(t, "the SLO page to capture an incident", func() bool {
		return len(s.incidents.list()) == 1
	})

	// Release the plugs, then prove the cooldown: a contained worker
	// panic — itself an incident trigger — must be suppressed, not
	// bundled.
	close(gate)
	wg.Wait()
	panicSentinelRuns(t)
	resp, mr := postMine(t, ts,
		fmt.Sprintf("abssup=5&max-itemsets=%d", panicItemsets), uploadFIMI, nil)
	if resp.StatusCode != http.StatusInternalServerError || mr.StopReason != "worker-panic" {
		t.Fatalf("injected panic run: status %d, %+v", resp.StatusCode, mr)
	}
	if n := s.incidents.count(); n != 1 {
		t.Fatalf("captured incidents = %d after cooldown-suppressed panic, want 1", n)
	}
	if n := s.met.incidentsSuppressed.Value(); n < 1 {
		t.Fatalf("incidents_suppressed = %d, want >= 1", n)
	}

	// The list endpoint: exactly one incident, reason slo-page.
	var list struct {
		Count     int               `json:"count"`
		Captured  int64             `json:"captured"`
		Incidents []IncidentSummary `json:"incidents"`
	}
	getJSON(t, ts.URL+"/debug/incidents", &list)
	if list.Count != 1 || list.Captured != 1 {
		t.Fatalf("incident list = %+v", list)
	}
	sum := list.Incidents[0]
	if sum.Reason != IncidentSLOPage || sum.SLOState != "page" {
		t.Fatalf("incident summary = %+v, want reason %q in state page", sum, IncidentSLOPage)
	}
	if resp := getJSON(t, fmt.Sprintf("%s/debug/incidents/%d", ts.URL, sum.ID+999), nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown incident id: status %d, want 404", resp.StatusCode)
	}

	// The bundle itself: schema-valid end to end.
	var b IncidentBundle
	getJSON(t, fmt.Sprintf("%s/debug/incidents/%d", ts.URL, sum.ID), &b)
	if err := ValidateIncident(b); err != nil {
		t.Fatalf("ValidateIncident: %v", err)
	}
	if b.Reason != IncidentSLOPage || b.SLO.State != "page" || !strings.Contains(b.Detail, "ok→page") {
		t.Fatalf("bundle = reason %q, slo %+v, detail %q", b.Reason, b.SLO, b.Detail)
	}
	if len(b.Flight.Runs) == 0 {
		t.Fatal("bundle flight dump has no run records")
	}

	// Persistence: the same bundle landed in -incident-dir.
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("incident-%d.json", b.ID)))
	if err != nil {
		t.Fatalf("persisted bundle: %v", err)
	}
	var pb IncidentBundle
	if err := json.Unmarshal(data, &pb); err != nil {
		t.Fatalf("persisted bundle: %v", err)
	}
	if err := ValidateIncident(pb); err != nil {
		t.Fatalf("persisted bundle invalid: %v", err)
	}

	// Attribution: the CPU window covering the incident has samples
	// labeled with the victim's run ID, tenant and a mining phase.
	if len(b.CPUProfile) == 0 {
		t.Skipf("no CPU window in bundle (profiler skipped %d windows: held elsewhere in this process)",
			b.ProfilerSkipped)
	}
	lv, err := prof.LabelValues(b.CPUProfile)
	if err != nil {
		t.Fatalf("parsing bundle CPU profile: %v", err)
	}
	if id := strconv.FormatInt(victim.RunID, 10); !lv[prof.LabelRunID][id] {
		t.Errorf("no samples labeled %s=%s; saw %v", prof.LabelRunID, id, lv[prof.LabelRunID])
	}
	if !lv[prof.LabelTenant]["prof-victim"] {
		t.Errorf("no samples labeled %s=prof-victim; saw %v", prof.LabelTenant, lv[prof.LabelTenant])
	}
	if len(lv[prof.LabelPhase]) == 0 {
		t.Errorf("no samples carry a %s label", prof.LabelPhase)
	}
}

// TestIncidentOnWorkerPanic: a contained worker panic outside any
// cooldown captures its own bundle, attributed to the injured run, and
// the bundle validates even with the profiler disabled.
func TestIncidentOnWorkerPanic(t *testing.T) {
	panicSentinelRuns(t)
	s, ts := newTestServer(t, Config{IncidentCooldown: time.Hour})

	resp, mr := postMine(t, ts,
		fmt.Sprintf("abssup=2&max-itemsets=%d", panicItemsets), uploadFIMI, nil)
	if resp.StatusCode != http.StatusInternalServerError || mr.StopReason != "worker-panic" {
		t.Fatalf("panic run: status %d, %+v", resp.StatusCode, mr)
	}

	list := s.incidents.list()
	if len(list) != 1 || list[0].Reason != IncidentWorkerPanic || list[0].RunID != mr.RunID {
		t.Fatalf("incidents after panic = %+v (run %d)", list, mr.RunID)
	}
	if n := s.met.incidents.With(IncidentWorkerPanic).Value(); n != 1 {
		t.Fatalf("fimserve_incidents_total{reason=%q} = %d, want 1", IncidentWorkerPanic, n)
	}

	var b IncidentBundle
	getJSON(t, fmt.Sprintf("%s/debug/incidents/%d", ts.URL, list[0].ID), &b)
	if err := ValidateIncident(b); err != nil {
		t.Fatalf("ValidateIncident: %v", err)
	}
	if !b.ProfilerDisabled || len(b.CPUProfile) != 0 {
		t.Fatalf("profiler-off bundle: disabled=%v, %d profile bytes", b.ProfilerDisabled, len(b.CPUProfile))
	}
	// The flight dump inside the bundle holds the injured run's record.
	found := false
	for _, r := range b.Flight.Runs {
		if r.ID == mr.RunID && r.StopReason == "worker-panic" && r.HTTPStatus == http.StatusInternalServerError {
			found = true
		}
	}
	if !found {
		t.Fatalf("injured run %d not in bundle flight dump: %+v", mr.RunID, b.Flight.Runs)
	}
}

// TestFlightPanicDump: a contained worker panic writes the flight
// recorder to <FlightPath>.panic as a valid dump carrying the injured
// run — the post-mortem survives even if the process never drains.
func TestFlightPanicDump(t *testing.T) {
	panicSentinelRuns(t)
	fp := filepath.Join(t.TempDir(), "flight.json")
	_, ts := newTestServer(t, Config{FlightPath: fp})

	resp, mr := postMine(t, ts,
		fmt.Sprintf("abssup=2&max-itemsets=%d", panicItemsets), uploadFIMI, nil)
	if resp.StatusCode != http.StatusInternalServerError || mr.StopReason != "worker-panic" {
		t.Fatalf("panic run: status %d, %+v", resp.StatusCode, mr)
	}

	data, err := os.ReadFile(fp + ".panic")
	if err != nil {
		t.Fatalf("panic side dump: %v", err)
	}
	var fd FlightDump
	if err := json.Unmarshal(data, &fd); err != nil {
		t.Fatalf("panic side dump: %v", err)
	}
	if fd.Schema != flightSchema || fd.Reason != "panic" || fd.GeneratedUnixNS <= 0 {
		t.Fatalf("panic dump envelope = %+v", fd)
	}
	found := false
	for _, r := range fd.Runs {
		if r.ID == mr.RunID && r.StopReason == "worker-panic" {
			found = true
		}
	}
	if !found {
		t.Fatalf("injured run %d not in panic dump: %+v", mr.RunID, fd.Runs)
	}
}

// TestValidateIncidentRejects: each class of bundle corruption fails
// validation with the check that owns it.
func TestValidateIncidentRejects(t *testing.T) {
	const goodScrape = "# TYPE t_total counter\nt_total 1\n"
	heap, err := prof.HeapProfile()
	if err != nil {
		t.Fatal(err)
	}
	valid := IncidentBundle{
		Schema:          incidentSchema,
		ID:              1,
		Reason:          IncidentWorkerPanic,
		GeneratedUnixNS: 1,
		Flight:          FlightDump{Schema: flightSchema, Reason: "incident", GeneratedUnixNS: 1},
		MetricsBefore:   goodScrape,
		MetricsAt:       goodScrape,
		Goroutines:      string(prof.GoroutineDump()),
		HeapProfile:     heap,
		ProfilerSkipped: 2,
	}
	if err := ValidateIncident(valid); err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(b *IncidentBundle)
		want string
	}{
		{"wrong schema", func(b *IncidentBundle) { b.Schema = "fimserve-incident/v0" }, "schema"},
		{"zero id", func(b *IncidentBundle) { b.ID = 0 }, "id"},
		{"unknown reason", func(b *IncidentBundle) { b.Reason = "gremlins" }, "reason"},
		{"missing timestamp", func(b *IncidentBundle) { b.GeneratedUnixNS = 0 }, "generated_unix_ns"},
		{"wrong flight schema", func(b *IncidentBundle) { b.Flight.Schema = "nope" }, "flight"},
		{"wrong flight reason", func(b *IncidentBundle) { b.Flight.Reason = "drain" }, "flight"},
		{"garbage metrics", func(b *IncidentBundle) { b.MetricsAt = "{{{ not a scrape" }, "metrics_at"},
		{"counter went backwards", func(b *IncidentBundle) {
			b.MetricsBefore = "# TYPE t_total counter\nt_total 5\n"
		}, "backwards"},
		{"not a goroutine dump", func(b *IncidentBundle) { b.Goroutines = "hello" }, "goroutine"},
		{"corrupt cpu profile", func(b *IncidentBundle) {
			b.CPUProfile = []byte("not pprof")
			b.CPUProfileStartUnixNS, b.CPUProfileEndUnixNS = 1, 2
		}, "cpu_profile"},
		{"missing cpu profile unexplained", func(b *IncidentBundle) {
			b.ProfilerSkipped, b.ProfilerDisabled = 0, false
		}, "cpu_profile"},
		{"corrupt heap profile", func(b *IncidentBundle) { b.HeapProfile = []byte{0x1f, 0x8b, 0xff} }, "heap_profile"},
	}
	for _, c := range cases {
		b := valid
		c.mut(&b)
		err := ValidateIncident(b)
		if err == nil {
			t.Errorf("%s: validated", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestHealthAndBuildInfoMetrics: the process-health gauges and the
// build-identity series are present and plausible in /metrics.
func TestHealthAndBuildInfoMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := scrape(t, ts.URL)

	if v, ok := sc.Value("fimserve_go_goroutines", nil); !ok || v < 1 {
		t.Fatalf("fimserve_go_goroutines = %g (present %v)", v, ok)
	}
	if v, ok := sc.Value("fimserve_go_heap_inuse_bytes", nil); !ok || v <= 0 {
		t.Fatalf("fimserve_go_heap_inuse_bytes = %g (present %v)", v, ok)
	}
	if _, ok := sc.Types["fimserve_go_gc_last_pause_seconds"]; !ok {
		t.Fatal("fimserve_go_gc_last_pause_seconds missing")
	}

	infos := sc.Samples("fimserve_build_info")
	if len(infos) != 1 {
		t.Fatalf("fimserve_build_info series = %+v, want exactly one", infos)
	}
	bi := infos[0]
	if bi.Value != 1 {
		t.Fatalf("fimserve_build_info value = %g, want 1", bi.Value)
	}
	if !strings.HasPrefix(bi.Labels["go_version"], "go1.") {
		t.Fatalf("fimserve_build_info go_version = %q", bi.Labels["go_version"])
	}
	if bi.Labels["commit"] == "" {
		t.Fatal("fimserve_build_info missing commit label")
	}
}
