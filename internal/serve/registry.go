package serve

import (
	"context"
	"slices"
	"sync"
	"time"

	fim "repro"
	"repro/internal/obs/export"
)

// RunInfo is the externally visible record of one admitted request,
// served by /runs and /runs/{id}. Every admitted request ends in
// exactly one terminal state — done with a result, done with a
// classified StopReason, or failed — so an operator can always answer
// "what happened to run N".
type RunInfo struct {
	ID       int64  `json:"id"`
	Tenant   string `json:"tenant"`
	Dataset  string `json:"dataset"`
	Algo     string `json:"algo"`
	Rep      string `json:"rep"`
	AbsSup   int    `json:"min_support_abs"`
	State    string `json:"state"` // queued | running | done | shed | canceled
	Started  int64  `json:"started_unix_ns"`
	Finished int64  `json:"finished_unix_ns,omitempty"`

	// Terminal outcome.
	HTTPStatus int    `json:"http_status,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
	Err        string `json:"error,omitempty"`
	Itemsets   int    `json:"itemsets,omitempty"`
	MaxK       int    `json:"max_k,omitempty"`
	Incomplete bool   `json:"incomplete,omitempty"`
	Degraded   bool   `json:"degraded,omitempty"`
}

// liveRun is the registry's internal handle on an executing run: its
// info, its event broadcast (for /runs/{id}/events), and the context
// cancel that Drain uses to stop it.
type liveRun struct {
	mu     sync.Mutex
	info   RunInfo
	bc     *export.Broadcast
	cancel context.CancelFunc
}

func (lr *liveRun) snapshot() RunInfo {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.info
}

// recentRun is one finished run kept for the /runs history, with its
// event broadcast retained so /runs/{id}/events can still replay the
// full stream after the run ends (the Broadcast is closed, so a late
// subscriber gets the replay and an immediately ended tail).
type recentRun struct {
	info RunInfo
	bc   *export.Broadcast
}

// registry tracks live runs and a bounded ring of recently finished
// ones.
type registry struct {
	mu     sync.Mutex
	nextID int64
	live   map[int64]*liveRun
	recent []recentRun // ring, newest appended
	keep   int
}

func newRegistry(keep int) *registry {
	return &registry{live: make(map[int64]*liveRun), keep: keep}
}

// begin registers a new run in the queued state and returns its handle.
func (r *registry) begin(info RunInfo, bc *export.Broadcast, cancel context.CancelFunc) *liveRun {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	info.ID = r.nextID
	info.State = "queued"
	info.Started = time.Now().UnixNano()
	lr := &liveRun{info: info, bc: bc, cancel: cancel}
	r.live[info.ID] = lr
	return lr
}

// running flips a run to the running state (it has a worker slot).
func (r *registry) running(lr *liveRun) {
	lr.mu.Lock()
	lr.info.State = "running"
	lr.mu.Unlock()
}

// finish moves a run from live to the recent ring with its terminal
// outcome filled in.
func (r *registry) finish(lr *liveRun, fill func(*RunInfo)) {
	lr.mu.Lock()
	lr.info.State = "done"
	lr.info.Finished = time.Now().UnixNano()
	fill(&lr.info)
	info := lr.info
	lr.mu.Unlock()

	r.mu.Lock()
	delete(r.live, info.ID)
	r.recent = append(r.recent, recentRun{info: info, bc: lr.bc})
	if len(r.recent) > r.keep {
		r.recent = r.recent[len(r.recent)-r.keep:]
	}
	r.mu.Unlock()
}

// get returns a run by ID — live first, then the recent ring.
func (r *registry) get(id int64) (RunInfo, *export.Broadcast, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if lr, ok := r.live[id]; ok {
		return lr.snapshot(), lr.bc, true
	}
	for i := len(r.recent) - 1; i >= 0; i-- {
		if r.recent[i].info.ID == id {
			return r.recent[i].info, r.recent[i].bc, true
		}
	}
	return RunInfo{}, nil, false
}

// list snapshots live runs (newest first) followed by recent ones.
func (r *registry) list() (live, recent []RunInfo) {
	r.mu.Lock()
	lrs := make([]*liveRun, 0, len(r.live))
	for _, lr := range r.live {
		lrs = append(lrs, lr)
	}
	recent = make([]RunInfo, len(r.recent))
	for i := range r.recent {
		recent[len(r.recent)-1-i] = r.recent[i].info // newest first
	}
	r.mu.Unlock()
	for _, lr := range lrs {
		live = append(live, lr.snapshot())
	}
	slices.SortFunc(live, func(a, b RunInfo) int { return int(b.ID - a.ID) })
	return live, recent
}

// cancelLive cancels every live run's context — the drain hammer. Each
// run unwinds at its next chunk boundary with a partial result and a
// "canceled" StopReason.
func (r *registry) cancelLive() {
	r.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(r.live))
	for _, lr := range r.live {
		if lr.cancel != nil {
			cancels = append(cancels, lr.cancel)
		}
	}
	r.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// runOutcome is what one executed (or cache-answered) request produced:
// everything the handler needs to write the HTTP response, shared
// verbatim with single-flight followers.
type runOutcome struct {
	status     int
	body       mineResponse
	sets       []fim.ItemsetCount
	stopReason string
	retryAfter time.Duration // > 0 when the queue turned the request away
}
