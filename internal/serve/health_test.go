package serve

import (
	"bytes"
	"runtime"
	"runtime/debug"
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
