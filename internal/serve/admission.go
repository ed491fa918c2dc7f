package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// admission implements the service's bounded admission ladder: a fixed
// number of running slots, a bounded queue in front of them, and a
// per-tenant in-flight cap. Every rung fails fast — a full queue sheds
// the request instead of queueing it invisibly, and a tenant over quota
// is rejected before it can consume a queue slot.
type admission struct {
	running   chan struct{} // capacity = concurrent runs
	queued    chan struct{} // capacity = admission queue depth
	perTenant int

	mu      sync.Mutex
	tenants map[string]int

	// ewmaNS tracks recent run durations so shed responses can suggest a
	// meaningful Retry-After instead of a constant.
	ewmaNS int64

	// Outcome counts for /stats: requests that took a running slot,
	// were shed by the full queue, or were over their tenant's quota.
	admitted, shed, quota atomic.Int64
}

func newAdmission(workers, queueDepth, perTenant int) *admission {
	return &admission{
		running:   make(chan struct{}, workers),
		queued:    make(chan struct{}, queueDepth),
		perTenant: perTenant,
		tenants:   make(map[string]int),
	}
}

func (a *admission) queueLen() int   { return len(a.queued) }
func (a *admission) runningLen() int { return len(a.running) }

// tenantEnter counts the tenant in if it is under the per-tenant quota;
// the returned leave func must be called exactly once when the request
// finishes.
func (a *admission) tenantEnter(tenant string) (leave func(), ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tenants[tenant] >= a.perTenant {
		a.quota.Add(1)
		return nil, false
	}
	a.tenants[tenant]++
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.tenants[tenant]--
			if a.tenants[tenant] == 0 {
				delete(a.tenants, tenant)
			}
			a.mu.Unlock()
		})
	}, true
}

// acquire climbs the capacity rungs: a running slot immediately if one
// is free, else a queue slot (failing fast with shed=true when the
// queue is full), then a wait for a running slot bounded by ctx and the
// drain signal. release must be called exactly once when acquire
// returns ok.
func (a *admission) acquire(ctx context.Context, drain <-chan struct{}) (release func(), ok, shed bool) {
	release = func() { <-a.running }
	select {
	case a.running <- struct{}{}:
		a.admitted.Add(1)
		return release, true, false
	default:
	}
	select {
	case a.queued <- struct{}{}:
	default:
		a.shed.Add(1)
		return nil, false, true // queue full: shed
	}
	// Queued. Wait for a running slot, abandoning the wait if the client
	// goes away or the server starts draining.
	select {
	case a.running <- struct{}{}:
		<-a.queued
		a.admitted.Add(1)
		return release, true, false
	case <-ctx.Done():
		<-a.queued
		return nil, false, false
	case <-drain:
		<-a.queued
		return nil, false, false
	}
}

// observe folds a finished run's duration into the Retry-After EWMA.
func (a *admission) observe(d time.Duration) {
	a.mu.Lock()
	if a.ewmaNS == 0 {
		a.ewmaNS = int64(d)
	} else {
		a.ewmaNS = (a.ewmaNS*3 + int64(d)) / 4
	}
	a.mu.Unlock()
}

// retryAfter suggests how long a shed client should back off: roughly
// one recent run duration, clamped to [1s, 60s].
func (a *admission) retryAfter() time.Duration {
	a.mu.Lock()
	e := a.ewmaNS
	a.mu.Unlock()
	d := time.Duration(e)
	if d < time.Second {
		d = time.Second
	}
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	return d
}
