// Process-health gauges and build identity for /metrics: the rest of
// the exposition describes the service (admission, runs, pool); these
// describe the process serving it — goroutines, live heap and the last
// GC pause, so a latency rise can be told from a GC storm or a
// goroutine leak before reaching for /debug/pprof. They are sampled
// through runtime/metrics with a small cache so scrapes stay cheap.
package serve

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	obsmetrics "repro/internal/obs/metrics"
)

// healthSampler reads the runtime's own metrics, refreshing at most
// once per second — GaugeFunc callbacks run per scrape per family, and
// metrics.Read + ReadMemStats are not free.
type healthSampler struct {
	mu      sync.Mutex
	last    time.Time
	samples []metrics.Sample

	goroutines  float64
	heapInUse   float64
	lastGCPause float64
}

func newHealthSampler() *healthSampler {
	return &healthSampler{samples: []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}}
}

// refresh re-reads the runtime if the cache is stale. Callers hold mu.
func (h *healthSampler) refresh() {
	now := time.Now()
	if now.Sub(h.last) < time.Second {
		return
	}
	h.last = now
	metrics.Read(h.samples)
	h.goroutines = float64(h.samples[0].Value.Uint64())
	h.heapInUse = float64(h.samples[1].Value.Uint64())
	// runtime/metrics exposes GC pauses only as a cumulative histogram;
	// the most recent pause still lives in MemStats' ring.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.NumGC > 0 {
		h.lastGCPause = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
	}
}

func (h *healthSampler) read(f func(*healthSampler) float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.refresh()
	return f(h)
}

// registerHealthGauges adds the process-health families to reg.
func registerHealthGauges(reg *obsmetrics.Registry) {
	h := newHealthSampler()
	reg.GaugeFunc("fimserve_go_goroutines",
		"Live goroutines in the serving process.",
		func() float64 { return h.read(func(h *healthSampler) float64 { return h.goroutines }) })
	reg.GaugeFunc("fimserve_go_heap_inuse_bytes",
		"Heap bytes occupied by live objects (runtime/metrics heap/objects).",
		func() float64 { return h.read(func(h *healthSampler) float64 { return h.heapInUse }) })
	reg.GaugeFunc("fimserve_go_gc_last_pause_seconds",
		"Duration of the most recent GC stop-the-world pause.",
		func() float64 { return h.read(func(h *healthSampler) float64 { return h.lastGCPause }) })
}

// provenance is the serving binary's build identity: the vcs revision
// the Go linker embedded ("unknown" for non-VCS builds and plain
// `go run`) and the toolchain version.
type provenance struct {
	commit    string
	goVersion string
}

// collectProvenance stamps the running binary's build facts.
func collectProvenance() provenance {
	p := provenance{commit: "unknown", goVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				p.commit = s.Value
			}
		}
	}
	return p
}

// registerBuildInfo adds the info-style build identity gauge, value
// fixed at 1 with the provenance in labels — the standard pattern for
// joining scrapes to builds.
func registerBuildInfo(reg *obsmetrics.Registry) {
	p := collectProvenance()
	reg.GaugeVec("fimserve_build_info",
		"Build identity of the serving binary; value is always 1.",
		"commit", "go_version").With(p.commit, p.goVersion).Set(1)
}
