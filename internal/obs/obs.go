// Package obs is the engine's instrumentation layer: named counters,
// gauges and histograms collected in a Registry, plus
// hierarchical Spans for stage timing (record -> profile -> sweep ->
// report); package obshttp serves a registry live. It is
// dependency-free (stdlib only, no network stack) and concurrency-safe.
//
// The package is built around a nil-is-off contract: every method on
// *Registry, *Counter, *Gauge, *Histogram, and *Span is
// safe to call on a nil receiver and does nothing. Instrumented code
// therefore never branches on an "enabled" flag — it asks for the
// registry (its own, or Default()), and when observation is off every
// call collapses to a nil check. This is what keeps the disabled path
// within the <2% overhead budget that BenchmarkObsOverhead in
// internal/trace enforces.
//
// Metric-name stability contract: names exported by instrumented packages
// (trace.accesses, trace.profile.accesses, hier.sim.l1.misses, ...) are
// part of the observable interface, as are the daemon families the
// scheduling service publishes (internal/plancache's cache.* counters
// and gauges, internal/server's server.* counters, the server.inflight
// gauge, and the server.request.duration / server.compute.duration
// histograms). Renaming or repurposing one is a breaking change for
// downstream dashboards and the counter contract tests
// (TestMetricCountersMatchSimulator, TestSweepPublishesOneObservationPerJob),
// and must be called out in CHANGES.md like any API change. New names may
// be added freely. The full list lives in README.md's Observability
// section.
//
// Concurrent writers are expected: the sweep pools and the daemon's
// computations update counters and histograms from many goroutines.
// Counter, Gauge, and Histogram are lock-free atomics; a duration is a
// Histogram (Start/Observe, in nanoseconds), so its count, total and
// percentiles come from one record. Hot loops should still batch (observe
// once per chunk of work) rather than once per item.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64. The nil Counter discards
// updates and reads as zero.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins int64 level. The nil Gauge discards updates
// and reads as zero.
type Gauge struct {
	v atomic.Int64
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Max raises the gauge to v if v is larger — a high-water mark.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics and root spans. Metrics are created on
// first use and live for the registry's lifetime; looking a name up twice
// returns the same instance. The nil Registry is the disabled
// instrumentation path: it hands out nil metrics and nil spans, and
// Snapshot returns an empty snapshot.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	roots      []*Span
}

// NewRegistry returns an empty live registry.
func NewRegistry() *Registry { return &Registry{} }

// defaultReg is the process-wide registry; nil means observation is off.
var defaultReg atomic.Pointer[Registry]

// Default returns the process-wide registry, or nil when observation is
// disabled (the initial state). Instrumented code that is not handed a
// registry explicitly publishes here.
func Default() *Registry { return defaultReg.Load() }

// SetDefault installs (or, with nil, disables) the process-wide registry
// and returns the previous one so callers can restore it.
func SetDefault(r *Registry) *Registry {
	return defaultReg.Swap(r)
}

// Or returns r if non-nil, else the process-wide default — the lookup
// instrumented code does when a registry may have been supplied explicitly
// (e.g. schedule.Env.Metrics).
func Or(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return Default()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		if r.counters == nil {
			r.counters = make(map[string]*Counter)
		}
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		if r.gauges == nil {
			r.gauges = make(map[string]*Gauge)
		}
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		if r.histograms == nil {
			r.histograms = make(map[string]*Histogram)
		}
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// maxRoots bounds the root spans a registry keeps: a long-lived registry
// (the daemon's, which opens one root per computation) holds only the
// newest maxRoots trees. It is above the roots one cmd/experiments -run all
// records, so a CLI or experiments snapshot keeps every root.
const maxRoots = 1024

// StartSpan opens a new root span. Nest further stages with Span.Start and
// close each with End; Snapshot exports the tree. The registry keeps the
// newest maxRoots roots and lets older trees go.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	sp := &Span{name: name, start: time.Now()}
	r.mu.Lock()
	if len(r.roots) == maxRoots {
		r.roots[0] = nil
		r.roots = r.roots[1:]
	}
	r.roots = append(r.roots, sp)
	r.mu.Unlock()
	return sp
}

// Snapshot captures the registry's current state. It is safe to call
// concurrently with updates; spans still open are exported with their
// duration so far and Open set. A nil registry snapshots as empty.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	roots := append([]*Span(nil), r.roots...)
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Stats()
	}
	s.Spans = make([]SpanNode, len(roots))
	for i, sp := range roots {
		s.Spans[i] = sp.node()
	}
	return s
}

// sortedKeys returns m's keys in lexical order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
