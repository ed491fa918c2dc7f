// Package metrics is the service-telemetry layer: a dependency-free
// metrics registry — atomic counters and gauges, optionally labeled,
// and fixed-bucket histograms — with Prometheus text-exposition
// v0.0.4 rendering (WriteText) and a matching scrape parser/validator
// (ParseText) for CI and obsvalidate.
//
// Where internal/obs observes one run from the inside (events, spans,
// kernel counters), this package observes the *service* over time: the
// serving stack registers its admission, cache, queue, pool and health
// instruments here and exposes them at GET /metrics, turning the
// paper's per-run scalability quantities into continuously scrapeable
// time series.
//
// Label cardinality is bounded by construction: every labeled family
// carries a series cap, and once it is reached new label tuples are
// folded into the FoldValue ("other") series — on the designated fold
// label (CounterVec.Fold) or on every label — so a tenant explosion cannot
// turn the registry into an allocation attack on its own observer.
// Folding is deterministic: the first cap distinct tuples get their own
// series, every later tuple lands in the same overflow series.
//
// All instruments are safe for concurrent use and lock-free on the hot
// path (one atomic add per counter increment or histogram observation);
// the registry lock is taken only when a new series is materialized and
// when the exposition is rendered. Rendering is byte-stable for a fixed
// state: families sort by name, series by label tuple.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FoldValue is the label value that overflow series are folded into
// once a family reaches its series cap.
const FoldValue = "other"

// DefaultSeriesCap bounds the distinct label tuples of one family when
// the registry has no explicit cap.
const DefaultSeriesCap = 256

// kind is a family's metric type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing count. The zero value is ready
// to use (a registered counter comes from Registry.Counter).
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are dropped: a counter is monotone by
// contract, and the scrape validator enforces it across scrapes.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat is a float64 accumulated with CAS — the histogram sum.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram counts observations into fixed buckets. Bounds are the
// inclusive upper edges (le semantics), ascending; observations above
// the last bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var t int64
	for i := range h.counts {
		t += h.counts[i].Load()
	}
	return t
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// cumulative returns the per-bound cumulative counts plus the total.
func (h *Histogram) cumulative() (cum []int64, total int64) {
	cum = make([]int64, len(h.bounds))
	for i := range h.counts {
		total += h.counts[i].Load()
		if i < len(cum) {
			cum[i] = total
		}
	}
	return cum, total
}

// DefBuckets are general-purpose latency bounds in seconds.
var DefBuckets = []float64{.001, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60}

// child is one materialized series of a family.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric: type, help, label schema and its series.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	foldIdx int // label index folded at the cap; -1 folds every label
	cap     int
	buckets []float64 // histogram bounds

	fn func() float64 // func-backed single series (nil otherwise)

	mu       sync.Mutex
	children map[string]*child
}

const keySep = "\xff"

// getChild returns (materializing if needed) the series for values,
// folding into the overflow series once the cap is reached.
func (f *family) getChild(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, keySep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	if len(f.labels) > 0 && f.cap > 0 && len(f.children) >= f.cap {
		folded := make([]string, len(values))
		copy(folded, values)
		if f.foldIdx >= 0 {
			folded[f.foldIdx] = FoldValue
		} else {
			for i := range folded {
				folded[i] = FoldValue
			}
		}
		key = strings.Join(folded, keySep)
		if c, ok := f.children[key]; ok {
			return c
		}
		values = folded // the overflow series itself may materialize past the cap
	}
	vals := make([]string, len(values))
	copy(vals, values)
	c := &child{values: vals}
	switch f.kind {
	case kindCounter:
		c.c = &Counter{}
	case kindGauge:
		c.g = &Gauge{}
	case kindHistogram:
		c.h = &Histogram{bounds: f.buckets, counts: make([]atomic.Int64, len(f.buckets)+1)}
	}
	f.children[key] = c
	return c
}

// snapshotChildren returns the family's series sorted by label tuple.
func (f *family) snapshotChildren() []*child {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*child, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	f.mu.Unlock()
	return out
}

// Registry holds a process- or server-scoped set of metric families.
// Construct with NewRegistry; one Registry per served component (the
// fimserve Server owns one).
type Registry struct {
	mu        sync.Mutex
	fams      map[string]*family
	seriesCap int
}

// NewRegistry returns an empty registry with DefaultSeriesCap.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family), seriesCap: DefaultSeriesCap}
}

// SetSeriesCap bounds the distinct label tuples per labeled family
// registered *after* the call (n <= 0 restores the default). Existing
// families keep their cap.
func (r *Registry) SetSeriesCap(n int) {
	if n <= 0 {
		n = DefaultSeriesCap
	}
	r.mu.Lock()
	r.seriesCap = n
	r.mu.Unlock()
}

// register returns the named family, creating it on first use. A
// re-registration with a different type or label schema panics: metric
// names are a schema, and two callers disagreeing on one is a bug.
func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64, fn func() float64) *family {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %s re-registered as %s/%d labels (was %s/%d)",
				name, k, len(labels), f.kind, len(f.labels)))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("metrics: %s re-registered with label %q (was %q)", name, labels[i], f.labels[i]))
			}
		}
		return f
	}
	if k == kindHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("metrics: %s histogram bounds not ascending", name))
		}
	}
	f := &family{
		name: name, help: help, kind: k,
		labels: append([]string(nil), labels...), foldIdx: -1,
		cap: r.seriesCap, buckets: append([]float64(nil), buckets...),
		fn: fn, children: make(map[string]*child),
	}
	r.fams[name] = f
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil, nil).getChild(nil).c
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil, nil).getChild(nil).g
}

// Histogram registers (or returns) an unlabeled histogram over the
// given ascending upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, kindHistogram, nil, buckets, nil).getChild(nil).h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotone sources that already keep their own atomic (e.g.
// runctl.Pool breach counts).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounter, nil, nil, fn)
}

// GaugeFunc registers a gauge read from fn at scrape time — for live
// quantities owned elsewhere (queue depth, pool bytes).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGauge, nil, nil, fn)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil, nil)}
}

// Fold designates the label whose value is replaced by FoldValue when
// the series cap is reached (instead of folding every label). Returns
// the vec for chaining; an unknown label name panics.
func (v *CounterVec) Fold(label string) *CounterVec {
	v.f.setFold(label)
	return v
}

// With returns the counter for the given label values (one per label,
// in registration order), materializing or folding as needed.
func (v *CounterVec) With(values ...string) *Counter { return v.f.getChild(values).c }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.getChild(values).g }

func (f *family) setFold(label string) {
	for i, l := range f.labels {
		if l == label {
			f.mu.Lock()
			f.foldIdx = i
			f.mu.Unlock()
			return
		}
	}
	panic(fmt.Sprintf("metrics: %s has no label %q to fold on", f.name, label))
}

// families returns the registered families sorted by name.
func (r *Registry) families() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
