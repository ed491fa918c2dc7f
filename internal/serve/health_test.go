package serve

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	obsmetrics "repro/internal/obs/metrics"
)

// TestProvenanceStamped: collectProvenance records the toolchain and
// the linker's vcs revision (or "unknown" without one), and the
// fimserve_build_info series carries exactly those labels.
func TestProvenanceStamped(t *testing.T) {
	p := collectProvenance()
	if p.goVersion != runtime.Version() {
		t.Errorf("go version = %q, want %q", p.goVersion, runtime.Version())
	}
	want := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				want = s.Value
			}
		}
	}
	if p.commit != want {
		t.Errorf("commit = %q, want %q", p.commit, want)
	}

	reg := obsmetrics.NewRegistry()
	registerBuildInfo(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := obsmetrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]string{"commit": p.commit, "go_version": p.goVersion}
	if v, ok := sc.Value("fimserve_build_info", labels); !ok || v != 1 {
		t.Errorf("fimserve_build_info%v = %g (present %v), want 1", labels, v, ok)
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
