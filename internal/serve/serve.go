// Package serve is the multi-tenant mining service: a long-running HTTP
// daemon that accepts mining requests — a named built-in dataset or a
// FIMI upload, with minsup, algorithm and representation — runs them
// concurrently on a shared bounded worker pool, and streams results and
// progress.
//
// The robustness spine is the point (the paper's premise is one big
// shared-memory machine serving many workloads, and service users won't
// tune knobs): every request descends an admission ladder whose rungs
// each degrade instead of dying —
//
//	cache    — answered from a previous run (possibly a lower-minsup
//	           run filtered up), costing no capacity at all;
//	queue    — a bounded admission queue; when full the request is
//	           shed with 429 + Retry-After instead of growing an
//	           unbounded backlog;
//	quota    — per-tenant in-flight caps so one tenant cannot occupy
//	           the whole machine;
//	budget   — per-request deadlines and memory caps mapped onto
//	           runctl budgets, plus one machine-wide shared memory
//	           pool (runctl.Pool) across all concurrent runs;
//	degrade  — budget breaches end runs with partial results and a
//	           classified StopReason; worker panics are contained to
//	           the one injured run (500) while other tenants' runs
//	           complete untouched.
//
// Graceful drain (SIGTERM) stops admitting, lets in-flight runs finish
// for a grace period, then budget-stops the stragglers so every request
// ends in a result or a classified stop — never a crash.
package serve

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	fim "repro"
	"repro/internal/dataset"
)

// Config tunes the service. The zero value is unusable; fill what you
// need and let withDefaults supply the rest — the defaults are chosen
// so an untuned daemon degrades safely under overload.
type Config struct {
	// Workers is the number of mining runs executing concurrently (the
	// shared worker-pool width). Default 2.
	Workers int
	// QueueDepth is the admission queue capacity beyond the running
	// slots; request Workers+QueueDepth+1 and the last one is shed with
	// 429. Default 8.
	QueueDepth int
	// PerTenant caps one tenant's in-flight (queued + running)
	// requests. Default 4.
	PerTenant int
	// MineWorkers is the per-run worker team size. Default 2.
	MineWorkers int
	// MaxRunMemory caps any single run's live payload bytes; a request
	// may ask for less, never more. Default 256 MiB.
	MaxRunMemory int64
	// GlobalMemory is the machine-wide shared live-payload budget
	// across all concurrent runs (runctl.Pool). Default 1 GiB.
	GlobalMemory int64
	// MaxRunDuration caps any single run's wall clock; requests may ask
	// for less. Default 60s.
	MaxRunDuration time.Duration
	// MaxUploadBytes caps a FIMI upload body. Default 16 MiB.
	MaxUploadBytes int64
	// UploadLimits bounds what an upload may parse into. Defaults:
	// 1 MiB lines, 1e6 transactions, 5e7 total items.
	UploadLimits dataset.Limits
	// CacheBytes is the result cache's cost budget. Default 64 MiB;
	// negative disables caching.
	CacheBytes int64
	// RecentRuns is how many finished runs /runs remembers. Default 64.
	RecentRuns int
	// ReadyMemFrac is the shared-pool fill fraction past which /readyz
	// reports not-ready. Default 0.9.
	ReadyMemFrac float64
	// DrainGrace is how long Drain lets in-flight runs finish before
	// budget-stopping them. Default 10s.
	DrainGrace time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.PerTenant <= 0 {
		c.PerTenant = 4
	}
	if c.MineWorkers <= 0 {
		c.MineWorkers = 2
	}
	if c.MaxRunMemory <= 0 {
		c.MaxRunMemory = 256 << 20
	}
	if c.GlobalMemory <= 0 {
		c.GlobalMemory = 1 << 30
	}
	if c.MaxRunDuration <= 0 {
		c.MaxRunDuration = 60 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 16 << 20
	}
	if c.UploadLimits == (dataset.Limits{}) {
		c.UploadLimits = dataset.Limits{
			MaxLineBytes:    1 << 20,
			MaxTransactions: 1_000_000,
			MaxTotalItems:   50_000_000,
		}
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.RecentRuns <= 0 {
		c.RecentRuns = 64
	}
	if c.ReadyMemFrac <= 0 || c.ReadyMemFrac > 1 {
		c.ReadyMemFrac = 0.9
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 10 * time.Second
	}
	return c
}

// Server is the mining service. Construct with New, expose Handler on
// any http.Server, and call Drain before exiting.
type Server struct {
	cfg     Config
	pool    *fim.SharedPool
	adm     *admission
	cache   *resultCache
	flights *flightGroup
	reg     *registry
	mux     *http.ServeMux

	panics atomic.Int64 // runs answered 500 after a contained worker panic

	draining atomic.Bool
	drainCh  chan struct{} // closed when draining starts
	drainOne sync.Once
	// inflightMu orders inflight.Add against Drain's inflight.Wait: a
	// request registers (Add) and Drain flips the draining flag under
	// the same lock, so once Wait starts no new Add can slip in.
	inflightMu sync.Mutex
	inflight   sync.WaitGroup
}

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    fim.NewSharedPool(cfg.GlobalMemory),
		adm:     newAdmission(cfg.Workers, cfg.QueueDepth, cfg.PerTenant),
		cache:   newResultCache(cfg.CacheBytes),
		flights: newFlightGroup(),
		reg:     newRegistry(cfg.RecentRuns),
		drainCh: make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the shared memory pool (tests and stats).
func (s *Server) Pool() *fim.SharedPool { return s.pool }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// beginRequest registers a request with the in-flight group unless the
// server is draining. Callers that get true must call s.inflight.Done()
// when the request completes.
func (s *Server) beginRequest() bool {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Drain gracefully winds the service down: stop admitting (new /mine
// requests get 503, /readyz goes not-ready), let in-flight runs finish
// for the configured grace period, then cancel the stragglers so they
// return partial results with a classified StopReason. It returns when
// every in-flight request has completed, or when ctx expires. Safe to
// call more than once; later calls just wait.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOne.Do(func() {
		s.inflightMu.Lock()
		s.draining.Store(true)
		s.inflightMu.Unlock()
		close(s.drainCh)
	})
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.reg.cancelLive()
		<-done
		return ctx.Err()
	case <-grace.C:
		// Grace expired: stop the stragglers at their next chunk
		// boundary. They unwind with partial results, not a crash.
		s.reg.cancelLive()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats is the server-level aggregate snapshot served at /stats. Each
// counter is read from the subsystem that owns it: admission, the
// single-flight group, the result cache, the shared pool and the
// server's panic count.
type Stats struct {
	Admitted       int64   `json:"admitted"`
	Shed           int64   `json:"shed"`
	QuotaRejected  int64   `json:"quota_rejected"`
	Deduplicated   int64   `json:"deduplicated"`
	WorkerPanics   int64   `json:"worker_panics"`
	PoolBreaches   int64   `json:"pool_breaches"`
	CacheHits      int64   `json:"cache_hits"`
	CacheFiltered  int64   `json:"cache_filtered_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheBytes     int64   `json:"cache_bytes"`
	CacheEvictions int64   `json:"cache_evictions"`
	PoolUsed       int64   `json:"pool_used_bytes"`
	PoolPeak       int64   `json:"pool_peak_bytes"`
	PoolCap        int64   `json:"pool_cap_bytes"`
	QueueDepth     int     `json:"queue_depth"`
	QueueCap       int     `json:"queue_cap"`
	Running        int     `json:"running"`
	Draining       bool    `json:"draining"`
	MemFraction    float64 `json:"mem_fraction"`
}

// Report is the daemon's terminal audit trail, written by fimserve on
// a drained exit: aggregate stats plus the run records, so an operator
// can answer "what did this instance serve and why did each run end".
type Report struct {
	Schema string    `json:"schema"`
	Stats  Stats     `json:"stats"`
	Live   []RunInfo `json:"live,omitempty"` // empty after a clean drain
	Recent []RunInfo `json:"recent"`
}

// ShutdownReport snapshots the server's terminal state.
func (s *Server) ShutdownReport() Report {
	live, recent := s.reg.list()
	return Report{
		Schema: "fimserve-report/v1",
		Stats:  s.stats(),
		Live:   live,
		Recent: recent,
	}
}

func (s *Server) stats() Stats {
	ch, cf, cm, cb, ce := s.cache.stats()
	return Stats{
		Admitted:       s.adm.admitted.Load(),
		Shed:           s.adm.shed.Load(),
		QuotaRejected:  s.adm.quota.Load(),
		Deduplicated:   s.flights.joined(),
		WorkerPanics:   s.panics.Load(),
		PoolBreaches:   s.pool.Breaches(),
		CacheHits:      ch,
		CacheFiltered:  cf,
		CacheMisses:    cm,
		CacheBytes:     cb,
		CacheEvictions: ce,
		PoolUsed:       s.pool.Used(),
		PoolPeak:       s.pool.Peak(),
		PoolCap:        s.pool.Cap(),
		QueueDepth:     s.adm.queueLen(),
		QueueCap:       s.cfg.QueueDepth,
		Running:        s.adm.runningLen(),
		Draining:       s.draining.Load(),
		MemFraction:    s.pool.Fraction(),
	}
}
