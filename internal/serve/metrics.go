package serve

import (
	"time"

	fim "repro"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
)

// Admission outcome labels, shared by the global admission counter, the
// per-tenant series, and /stats. Every /mine request ends in exactly
// one of these.
const (
	outcomeAdmitted   = "admitted"         // took a worker slot and ran
	outcomeShed       = "shed"             // bounded queue full: 429
	outcomeQuota      = "quota"            // per-tenant cap: 429
	outcomeCoalesced  = "coalesced"        // single-flight follower
	outcomeCacheHit   = "cache_hit"        // exact-threshold cache answer
	outcomeFiltered   = "cache_filter_hit" // lower-minsup entry filtered up
	outcomeAbandoned  = "abandoned"        // client gone / drain while queued
	outcomeDrained    = "drain_rejected"   // 503, server draining
	outcomeBadRequest = "bad_request"      // failed validation, never queued
)

// Histogram bounds. Queue waits are short (a slot frees in one run
// time); run wall and request latency share the general latency scale.
var (
	queueWaitBuckets = []float64{.0005, .001, .005, .01, .05, .1, .5, 1, 5, 10, 30}
	imbalanceBuckets = []float64{1.02, 1.05, 1.1, 1.2, 1.5, 2, 3, 5, 10}
)

// serverMetrics is the serving stack's instrument panel, all registered
// on one per-Server registry served at GET /metrics. The /stats
// endpoint reads the same instruments (stats()), so the two views can
// never disagree.
type serverMetrics struct {
	reg *metrics.Registry

	admission *metrics.CounterVec // fimserve_admission_total{outcome}
	tenant    *metrics.CounterVec // fimserve_tenant_requests_total{tenant,outcome}
	panics    *metrics.Counter    // fimserve_worker_panics_total
	stops     *metrics.CounterVec // fimserve_run_stops_total{reason}

	queueWait  *metrics.Histogram // fimserve_queue_wait_seconds
	runWall    *metrics.Histogram // fimserve_run_wall_seconds
	requestDur *metrics.Histogram // fimserve_request_seconds

	kernel    *metrics.CounterVec // fimserve_kernel_ops_total{op}
	imbalance *metrics.Histogram  // fimserve_sched_imbalance
}

// newServerMetrics registers the serving stack's families. tenantCap
// bounds the per-tenant label cardinality; past it new tenants fold
// into tenant="other".
func newServerMetrics(s *Server, tenantCap int) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{reg: reg}

	m.admission = reg.CounterVec("fimserve_admission_total",
		"Terminal admission-ladder outcomes of /mine requests.", "outcome")
	for _, o := range []string{outcomeAdmitted, outcomeShed, outcomeQuota,
		outcomeCoalesced, outcomeCacheHit, outcomeFiltered, outcomeAbandoned,
		outcomeDrained, outcomeBadRequest} {
		m.admission.With(o) // materialize now: scrapes differ only in values
	}
	reg.SetSeriesCap(tenantCap)
	m.tenant = reg.CounterVec("fimserve_tenant_requests_total",
		"Per-tenant admission outcomes; overflow tenants fold into \"other\".",
		"tenant", "outcome").Fold("tenant")
	reg.SetSeriesCap(0)
	m.panics = reg.Counter("fimserve_worker_panics_total",
		"Worker panics contained to their run (the 500s).")
	m.stops = reg.CounterVec("fimserve_run_stops_total",
		"Classified stop causes of incomplete runs.", "reason")

	m.queueWait = reg.Histogram("fimserve_queue_wait_seconds",
		"Wait between entering the admission queue and taking a worker slot.",
		queueWaitBuckets)
	m.runWall = reg.Histogram("fimserve_run_wall_seconds",
		"Mining wall time of admitted runs.", nil)
	m.requestDur = reg.Histogram("fimserve_request_seconds",
		"End-to-end /mine latency including queueing, for every terminal outcome.", nil)

	m.kernel = reg.CounterVec("fimserve_kernel_ops_total",
		"Kernel-operation roll-ups summed over runs (internal/kcount wire names).",
		"op")
	m.imbalance = reg.Histogram("fimserve_sched_imbalance",
		"Per-scheduler-loop max/mean busy-time imbalance across all runs.",
		imbalanceBuckets)

	registerHealthGauges(reg)
	registerBuildInfo(reg)

	// Live gauges read their owners at scrape time — the same sources
	// /stats and /readyz report.
	reg.GaugeFunc("fimserve_pool_used_bytes",
		"Shared live-payload pool bytes in use across all runs.",
		func() float64 { return float64(s.pool.Used()) })
	reg.GaugeFunc("fimserve_pool_peak_bytes",
		"Shared pool high-water mark.",
		func() float64 { return float64(s.pool.Peak()) })
	reg.GaugeFunc("fimserve_pool_cap_bytes",
		"Shared pool capacity.",
		func() float64 { return float64(s.pool.Cap()) })
	reg.CounterFunc("fimserve_pool_breaches_total",
		"Runs stopped by a shared-pool capacity breach.",
		func() float64 { return float64(s.pool.Breaches()) })
	reg.GaugeFunc("fimserve_queue_depth",
		"Admission queue occupancy.",
		func() float64 { return float64(s.adm.queueLen()) })
	reg.GaugeFunc("fimserve_running",
		"Mining runs currently holding a worker slot.",
		func() float64 { return float64(s.adm.runningLen()) })
	reg.GaugeFunc("fimserve_draining",
		"1 while the server is draining.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	return m
}

// outcome records one terminal admission outcome for tenant.
func (m *serverMetrics) outcome(tenant, outcome string) {
	m.admission.With(outcome).Inc()
	m.tenant.With(tenant, outcome).Inc()
}

// eventTap is the Observer leg that folds a run's event stream into
// the service time series: scheduler imbalance per loop, and the run's
// kernel counters (exact per run, overlapping runs included) summed
// into the kernel-operation roll-ups.
type eventTap struct{ m *serverMetrics }

func (t *eventTap) Event(e obs.Event) {
	switch e.Type {
	case obs.PhaseEnd:
		if e.Imbalance > 0 {
			t.m.imbalance.Observe(e.Imbalance)
		}
	case obs.KernelCounters:
		for op, v := range e.Counters {
			t.m.kernel.With(op).Add(v)
		}
	}
}

// tap returns the observer leg runs attach next to their Broadcast.
func (m *serverMetrics) tap() fim.Observer { return &eventTap{m} }

// observeRun records an admitted run's terminal timings and stop cause.
func (m *serverMetrics) observeRun(wall time.Duration, stopReason string) {
	m.runWall.Observe(wall.Seconds())
	if stopReason != "" {
		m.stops.With(stopReason).Inc()
	}
}

// cacheMetrics is the result cache's view of the registry: the cache
// increments these directly, so /metrics and cache.stats() (hence
// /stats) are the same atomics and can never disagree.
type cacheMetrics struct {
	hits      *metrics.Counter // fimserve_cache_requests_total{outcome="hit"}
	filtered  *metrics.Counter // ...{outcome="filter_hit"}
	misses    *metrics.Counter // ...{outcome="miss"}
	evictions *metrics.Counter // fimserve_cache_evictions_total
	bytes     *metrics.Gauge   // fimserve_cache_bytes
}

func newCacheMetrics(reg *metrics.Registry) *cacheMetrics {
	reqs := reg.CounterVec("fimserve_cache_requests_total",
		"Result-cache lookups by outcome (hit, filter_hit, miss).", "outcome")
	return &cacheMetrics{
		hits:     reqs.With("hit"),
		filtered: reqs.With("filter_hit"),
		misses:   reqs.With("miss"),
		evictions: reg.Counter("fimserve_cache_evictions_total",
			"Result-cache entries evicted by the cost budget."),
		bytes: reg.Gauge("fimserve_cache_bytes",
			"Result-cache payload bytes currently held."),
	}
}
