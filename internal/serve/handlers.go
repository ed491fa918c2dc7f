package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	fim "repro"
	"repro/internal/core"
	"repro/internal/obs/export"
	"repro/internal/vertical"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /mine", s.handleMine)
	s.mux.HandleFunc("GET /runs", s.handleRuns)
	s.mux.HandleFunc("GET /runs/{id}", s.handleRun)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	// The standard library's on-demand profiles. A served run's samples
	// carry its fim_* labels (internal/obs/prof), so a CPU profile taken
	// here can be sliced by run and phase with `go tool pprof -tagfocus`.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// mineRequest is a parsed, validated, budget-clamped /mine request.
type mineRequest struct {
	tenant  string
	dsKey   string // cache identity: "name@scale" or "upload:<hash>"
	dsLabel string
	db      *fim.DB
	absSup  int
	algo    core.Algorithm
	rep     vertical.Kind

	workers     int
	maxMemory   int64
	maxItemsets int64
	maxDuration time.Duration
	degrade     bool
	limit       int // cap on itemsets echoed in the response body
}

// mineResponse is the /mine response body (and the run detail body).
type mineResponse struct {
	RunID      int64     `json:"run_id,omitempty"`
	Dataset    string    `json:"dataset"`
	Algo       string    `json:"algo"`
	Rep        string    `json:"rep"`
	AbsSup     int       `json:"min_support_abs"`
	Itemsets   int       `json:"itemsets"`
	MaxK       int       `json:"max_k"`
	Incomplete bool      `json:"incomplete,omitempty"`
	Degraded   bool      `json:"degraded,omitempty"`
	StopReason string    `json:"stop_reason,omitempty"`
	Error      string    `json:"error,omitempty"`
	Cached     bool      `json:"cached,omitempty"`
	ElapsedMS  float64   `json:"elapsed_ms"`
	Sets       []jsonSet `json:"sets,omitempty"`
}

type jsonSet struct {
	Items   []uint32 `json:"items"`
	Support int      `json:"support"`
}

func toJSONSets(sets []fim.ItemsetCount, limit int) []jsonSet {
	n := len(sets)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]jsonSet, n)
	for i := 0; i < n; i++ {
		items := make([]uint32, len(sets[i].Items))
		for j, it := range sets[i].Items {
			items[j] = uint32(it)
		}
		out[i] = jsonSet{Items: items, Support: sets[i].Support}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// parseMine turns an HTTP request into a validated mineRequest,
// building the database (built-in by name, or FIMI upload from the
// body) and clamping every requested budget to the server's maxima —
// a tenant can ask for less than the configured caps, never more.
func (s *Server) parseMine(w http.ResponseWriter, r *http.Request) (*mineRequest, bool) {
	q := r.URL.Query()
	mr := &mineRequest{
		tenant:      r.Header.Get("X-Tenant"),
		workers:     s.cfg.MineWorkers,
		maxMemory:   s.cfg.MaxRunMemory,
		maxDuration: s.cfg.MaxRunDuration,
		degrade:     true,
	}
	if mr.tenant == "" {
		mr.tenant = "anon"
	}

	algoName := q.Get("algo")
	if algoName == "" {
		algoName = "eclat"
	}
	algo, err := core.ParseAlgorithm(algoName)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad algo: %v", err)
		return nil, false
	}
	mr.algo = algo
	repName := q.Get("rep")
	if repName == "" {
		repName = "diffset"
	}
	rep, err := vertical.ParseKind(repName)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad rep: %v", err)
		return nil, false
	}
	mr.rep = rep

	// Dataset: a built-in by name (+scale), or a FIMI upload in the body.
	if name := q.Get("dataset"); name != "" {
		scale := 1.0
		if sv := q.Get("scale"); sv != "" {
			scale, err = strconv.ParseFloat(sv, 64)
			if err != nil || scale <= 0 || scale > 4 {
				httpError(w, http.StatusBadRequest, "bad scale %q (want 0 < scale <= 4)", sv)
				return nil, false
			}
		}
		db, err := fim.Dataset(name, scale)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad dataset: %v", err)
			return nil, false
		}
		mr.db = db
		mr.dsKey = fmt.Sprintf("%s@%g", name, scale)
		mr.dsLabel = mr.dsKey
	} else {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				httpError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", mbe.Limit)
			} else {
				httpError(w, http.StatusBadRequest, "reading upload: %v", err)
			}
			return nil, false
		}
		if len(body) == 0 {
			httpError(w, http.StatusBadRequest, "no dataset: pass ?dataset=<name> or upload FIMI text in the body")
			return nil, false
		}
		sum := sha256.Sum256(body)
		key := "upload:" + hex.EncodeToString(sum[:6])
		db, err := fim.ReadFIMILimits(key, bytes.NewReader(body), s.cfg.UploadLimits)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad upload: %v", err)
			return nil, false
		}
		mr.db = db
		mr.dsKey = key
		mr.dsLabel = key
	}

	// Support threshold: relative (?support=0.4) or absolute (?abssup=120).
	switch {
	case q.Get("abssup") != "":
		abs, err := strconv.Atoi(q.Get("abssup"))
		if err != nil || abs < 1 {
			httpError(w, http.StatusBadRequest, "bad abssup %q", q.Get("abssup"))
			return nil, false
		}
		mr.absSup = abs
	case q.Get("support") != "":
		rel, err := strconv.ParseFloat(q.Get("support"), 64)
		if err != nil || rel <= 0 || rel > 1 {
			httpError(w, http.StatusBadRequest, "bad support %q (want a fraction in (0, 1])", q.Get("support"))
			return nil, false
		}
		mr.absSup = mr.db.AbsoluteSupport(rel)
	default:
		httpError(w, http.StatusBadRequest, "missing support threshold: pass ?support= or ?abssup=")
		return nil, false
	}

	// Tunables, clamped to the server's configured maxima.
	if wv := q.Get("workers"); wv != "" {
		n, err := strconv.Atoi(wv)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad workers %q", wv)
			return nil, false
		}
		if n > 0 && n < mr.workers {
			mr.workers = n
		}
	}
	if mv := q.Get("max-memory-mb"); mv != "" {
		n, err := strconv.ParseInt(mv, 10, 64)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad max-memory-mb %q", mv)
			return nil, false
		}
		if b := n << 20; b < mr.maxMemory {
			mr.maxMemory = b
		}
	}
	if iv := q.Get("max-itemsets"); iv != "" {
		n, err := strconv.ParseInt(iv, 10, 64)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad max-itemsets %q", iv)
			return nil, false
		}
		mr.maxItemsets = n
	}
	if tv := q.Get("timeout"); tv != "" {
		d, err := time.ParseDuration(tv)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad timeout %q", tv)
			return nil, false
		}
		if d < mr.maxDuration {
			mr.maxDuration = d
		}
	}
	if q.Get("degrade") == "off" {
		mr.degrade = false
	}
	if lv := q.Get("limit"); lv != "" {
		n, err := strconv.Atoi(lv)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad limit %q", lv)
			return nil, false
		}
		mr.limit = n
	}
	return mr, true
}

// handleMine is the admission ladder end to end: drain gate, parse,
// cache, tenant quota, single-flight, bounded queue (shed with 429 when
// full), then the run itself under per-request budgets, the shared
// memory pool and panic containment.
func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "10")
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting new runs")
		return
	}
	mr, ok := s.parseMine(w, r)
	if !ok {
		return
	}
	ck := cacheKey{dataset: mr.dsKey, algo: mr.algo.String(), rep: mr.rep.String()}

	// Cache first: a hit costs no queue slot, no worker, no pool bytes.
	if sets, maxK, hit := s.cache.lookup(ck, mr.absSup); hit {
		resp := mineResponse{
			Dataset: mr.dsLabel, Algo: ck.algo, Rep: ck.rep,
			AbsSup: mr.absSup, Itemsets: len(sets), MaxK: maxK,
			Cached: true, Sets: toJSONSets(sets, mr.limit),
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	// Register with the drain group before taking a flight slot: a
	// leader that 503'd here without finishing its flight would strand
	// its followers.
	if !s.beginRequest() {
		w.Header().Set("Retry-After", "10")
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting new runs")
		return
	}
	defer s.inflight.Done()

	// Tenant quota, per request and before the flight: one tenant cannot
	// occupy the whole queue, and its rejection is never shared with
	// another tenant's follower.
	leave, ok := s.adm.tenantEnter(mr.tenant)
	if !ok {
		w.Header().Set("Retry-After", retryAfterHeader(s.adm.retryAfter()))
		writeJSON(w, http.StatusTooManyRequests, mineResponse{
			Dataset: mr.dsLabel, Algo: ck.algo, Rep: ck.rep, AbsSup: mr.absSup,
			Error: fmt.Sprintf("tenant %q over its quota of %d in-flight requests", mr.tenant, s.cfg.PerTenant),
		})
		return
	}
	defer leave()

	// Single-flight: identical concurrent requests share one run.
	fk := flightKey{cacheKey: ck, absSup: mr.absSup, maxItemsets: mr.maxItemsets,
		maxMemory: mr.maxMemory, maxDuration: mr.maxDuration, degrade: mr.degrade}
	fl, leader, finish, stop := s.flights.join(fk, r.Context())
	defer stop()
	if !leader {
		select {
		case <-fl.done:
			writeOutcome(w, fl.out, mr.limit)
		case <-r.Context().Done():
			httpError(w, http.StatusServiceUnavailable, "client gone while waiting for shared run")
		}
		return
	}

	out := s.runLeader(fl.ctx, mr, ck)
	finish(out)
	writeOutcome(w, out, mr.limit)
}

// retryAfterHeader renders a backoff as whole seconds, rounded up.
func retryAfterHeader(d time.Duration) string {
	return strconv.Itoa(int((d + time.Second - 1) / time.Second))
}

// writeOutcome renders a shared run outcome onto one response, applying
// this request's own itemset limit and backoff header.
func writeOutcome(w http.ResponseWriter, out *runOutcome, limit int) {
	if out.retryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterHeader(out.retryAfter))
	}
	resp := out.body
	resp.Sets = toJSONSets(out.sets, limit)
	writeJSON(w, out.status, resp)
}

// runLeader executes one admitted mining request under the flight's
// context ctx: queue, run, classification. It always returns an outcome
// (shared with single-flight followers) and always leaves the registry
// with a terminal record.
func (s *Server) runLeader(ctx context.Context, mr *mineRequest, ck cacheKey) *runOutcome {
	base := mineResponse{
		Dataset: mr.dsLabel, Algo: ck.algo, Rep: ck.rep, AbsSup: mr.absSup,
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	bc := export.NewBroadcast(0)
	lr := s.reg.begin(RunInfo{
		Tenant: mr.tenant, Dataset: mr.dsLabel,
		Algo: ck.algo, Rep: ck.rep, AbsSup: mr.absSup,
	}, bc, cancelRun)
	base.RunID = lr.snapshot().ID

	// Bounded queue: full means shed now with 429 + Retry-After, not an
	// invisible unbounded backlog.
	release, ok, shed := s.adm.acquire(runCtx, s.drainCh)
	if !ok {
		var status int
		var reason string
		if shed {
			status, reason = http.StatusTooManyRequests, "shed"
			base.Error = "admission queue full"
		} else {
			status, reason = http.StatusServiceUnavailable, "canceled"
			base.Error = "abandoned while queued (client gone or server draining)"
		}
		s.reg.finish(lr, func(ri *RunInfo) {
			ri.HTTPStatus = status
			ri.StopReason = reason
			ri.Err = base.Error
			ri.State = reason
		})
		bc.CloseStream()
		base.StopReason = reason
		return &runOutcome{status: status, body: base, stopReason: reason,
			retryAfter: s.adm.retryAfter()}
	}
	defer release()
	s.reg.running(lr)

	opt := fim.Options{
		Algorithm:        mr.algo,
		Representation:   mr.rep,
		Workers:          mr.workers,
		Observer:         bc,
		RunID:            base.RunID,
		ProfileLabels:    true,
		Tenant:           mr.tenant,
		MaxMemoryBytes:   mr.maxMemory,
		MaxItemsets:      mr.maxItemsets,
		MaxDuration:      mr.maxDuration,
		DegradeToDiffset: mr.degrade,
		SharedPool:       s.pool,
	}
	start := time.Now()
	res, err := fim.MineAbsoluteContext(runCtx, mr.db, mr.absSup, opt)
	elapsed := time.Since(start)
	s.adm.observe(elapsed)
	bc.CloseStream()

	out := s.classify(mr, ck, base, res, err, elapsed)
	s.reg.finish(lr, func(ri *RunInfo) {
		ri.HTTPStatus = out.status
		ri.StopReason = out.stopReason
		ri.Err = out.body.Error
		ri.Itemsets = out.body.Itemsets
		ri.MaxK = out.body.MaxK
		ri.Incomplete = out.body.Incomplete
		ri.Degraded = out.body.Degraded
	})
	return out
}

// classify maps a finished run onto the degrade-don't-die status
// ladder: complete results are 200 and cached; budget stops,
// cancellation and deadlines are 200 with Incomplete and a classified
// stop_reason (a partial answer is an answer); a contained worker
// panic is the one 500 — the injured run fails alone while everyone
// else's requests proceed.
func (s *Server) classify(mr *mineRequest, ck cacheKey, base mineResponse, res *fim.Result, err error, elapsed time.Duration) *runOutcome {
	base.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	var sets []fim.ItemsetCount
	if res != nil {
		sets = res.Decoded()
		base.Itemsets = len(sets)
		base.MaxK = res.MaxK
		base.Incomplete = res.Incomplete
		base.Degraded = res.Degraded
	}
	if err == nil {
		s.cache.store(ck, mr.absSup, sets, base.MaxK)
		return &runOutcome{status: http.StatusOK, body: base, sets: sets}
	}
	reason := fim.StopReason(err)
	base.StopReason = reason
	base.Error = err.Error()
	switch reason {
	case "worker-panic":
		s.panics.Add(1)
		return &runOutcome{status: http.StatusInternalServerError, body: base, sets: sets, stopReason: reason}
	case "budget:memory", "budget:itemsets", "budget:duration", "budget:shared-memory",
		"canceled", "deadline":
		// Partial results are answers: the supports emitted are exact,
		// Incomplete is set, the reason is classified. Not cacheable.
		base.Incomplete = true
		return &runOutcome{status: http.StatusOK, body: base, sets: sets, stopReason: reason}
	}
	return &runOutcome{status: http.StatusInternalServerError, body: base, sets: sets, stopReason: reason}
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	live, recent := s.reg.list()
	writeJSON(w, http.StatusOK, map[string]any{"live": live, "recent": recent})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad run id %q", r.PathValue("id"))
		return
	}
	info, _, ok := s.reg.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "run %d not found (finished runs are kept for the last %d)", id, s.cfg.RecentRuns)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad run id %q", r.PathValue("id"))
		return
	}
	_, bc, ok := s.reg.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "run %d not found", id)
		return
	}
	if bc == nil {
		httpError(w, http.StatusGone, "run %d finished; its event stream is gone", id)
		return
	}
	export.ServeSSE(w, r, bc)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process serves HTTP. Readiness is /readyz's job.
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	// Readiness is a capacity question: draining, queue, memory.
	type readiness struct {
		Ready       bool    `json:"ready"`
		Reason      string  `json:"reason,omitempty"`
		QueueDepth  int     `json:"queue_depth"`
		QueueCap    int     `json:"queue_cap"`
		MemFraction float64 `json:"mem_fraction"`
	}
	rd := readiness{
		QueueDepth:  s.adm.queueLen(),
		QueueCap:    s.cfg.QueueDepth,
		MemFraction: s.pool.Fraction(),
	}
	switch {
	case s.draining.Load():
		rd.Reason = "draining"
	case rd.QueueDepth >= rd.QueueCap:
		rd.Reason = "admission queue full"
	case rd.MemFraction > s.cfg.ReadyMemFrac:
		rd.Reason = fmt.Sprintf("memory pressure: pool %.0f%% full", rd.MemFraction*100)
	default:
		rd.Ready = true
		writeJSON(w, http.StatusOK, rd)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, rd)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}
