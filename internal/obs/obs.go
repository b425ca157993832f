// Package obs is the engine's instrumentation layer: named counters,
// gauges, timers, and histograms collected in a Registry, plus
// hierarchical Spans for stage timing (record -> profile -> sweep ->
// report); package obshttp serves a registry live. It is
// dependency-free (stdlib only, no network stack) and concurrency-safe.
//
// The package is built around a nil-is-off contract: every method on
// *Registry, *Counter, *Gauge, *Timer, *Histogram, and *Span is
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
// timers). Renaming or repurposing one is a breaking change for
// downstream dashboards and the counter contract tests
// (TestMetricCountersMatchSimulator, TestSweepPublishesOneObservationPerJob),
// and must be called out in CHANGES.md like any API change. New names may
// be added freely. The full list lives in README.md's Observability
// section.
//
// Concurrent writers are expected: the sweep pools and the daemon's
// computations update counters and timers from many goroutines.
// Counter, Gauge, and Histogram are lock-free atomics. A Timer records
// into its same-named Histogram sibling (lock-free, and percentiles come
// for free in snapshots). Hot loops should still batch (observe once per
// chunk of work) rather than once per item.
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

// Timer accumulates duration observations: count, total, min, and max.
// It is a handle on the Histogram sibling Registry.Timer registers under
// the same name, so every timer call site also exports a latency
// distribution (p50/p90/p99) under the timer's stable TimerStats
// contract. The nil Timer, and a zero-value Timer not obtained from a
// Registry, discard observations.
type Timer struct {
	h *Histogram // sibling; nil unless created via Registry.Timer
}

// histogram is the timer's sibling, nil for the nil or zero-value Timer.
func (t *Timer) histogram() *Histogram {
	if t == nil {
		return nil
	}
	return t.h
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) { t.histogram().Observe(d) }

// nopStop is the shared no-op a disabled Start returns so the disabled
// path allocates nothing.
var nopStop = func() {}

// Start begins timing one operation and returns the function that stops
// the clock and records the elapsed duration. On a discarding Timer it
// returns a shared no-op without reading the clock or allocating.
func (t *Timer) Start() func() { return t.histogram().Start() }

// Stats returns the accumulated observation summary.
func (t *Timer) Stats() TimerStats {
	hs := t.histogram().Stats()
	return TimerStats{Count: hs.Count, TotalNS: hs.Sum, MinNS: hs.Min, MaxNS: hs.Max}
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
	timers     map[string]*Timer
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

// Timer returns the named timer, creating it on first use. The timer
// records into a Histogram sibling under the same name (created
// alongside), so the snapshot's histograms section carries a latency
// distribution for every timer name.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timers[name]
	if t == nil {
		if r.timers == nil {
			r.timers = make(map[string]*Timer)
		}
		t = &Timer{h: r.histogramLocked(name)}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it on first use. Timer
// siblings share this namespace: Histogram("x") after Timer("x") returns
// the timer's distribution.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histogramLocked(name)
}

// histogramLocked is Histogram with r.mu already held.
func (r *Registry) histogramLocked(name string) *Histogram {
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

// StartSpan opens a new root span. Nest further stages with Span.Start and
// close each with End; Snapshot exports the tree. Every span in the tree
// records its self time (duration minus its children's) into the
// span.self histogram at End, so stage self-times have a distribution
// alongside the tree.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	sp := &Span{name: name, start: time.Now(), selfH: r.Histogram("span.self")}
	r.mu.Lock()
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
		Timers:     map[string]TimerStats{},
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
	timers := make(map[string]*Timer, len(r.timers))
	for k, v := range r.timers {
		timers[k] = v
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
	for k, v := range timers {
		s.Timers[k] = v.Stats()
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
