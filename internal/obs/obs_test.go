package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentUpdates hammers one registry from many goroutines — the
// shape sweeps produce — and checks the totals. Run under -race this also
// pins the concurrency-safety claim.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Add(2)
				r.Gauge("g").Max(int64(g*per + i))
				r.Histogram("t").Observe(time.Duration(i+1) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != goroutines*per*2 {
		t.Errorf("counter: got %d, want %d", got, goroutines*per*2)
	}
	if got := r.Gauge("g").Value(); got != goroutines*per-1 {
		t.Errorf("gauge high-water: got %d, want %d", got, goroutines*per-1)
	}
	hs := r.Histogram("t").Stats()
	if hs.Count != goroutines*per {
		t.Errorf("histogram count: got %d, want %d", hs.Count, goroutines*per)
	}
	wantTotal := int64(goroutines) * per * (per + 1) / 2 * int64(time.Microsecond)
	if hs.Sum != wantTotal {
		t.Errorf("histogram sum: got %d, want %d", hs.Sum, wantTotal)
	}
	if hs.Min != int64(time.Microsecond) || hs.Max != int64(per*int(time.Microsecond)) {
		t.Errorf("histogram min/max: got %d/%d", hs.Min, hs.Max)
	}
}

// TestMetricIdentity checks that a name looked up twice is the same
// instance — counters must not fork.
func TestMetricIdentity(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(1)
	r.Counter("x").Add(1)
	if got := r.Counter("x").Value(); got != 2 {
		t.Errorf("counter forked: got %d, want 2", got)
	}
	if r.Histogram("h") != r.Histogram("h") || r.Gauge("g") != r.Gauge("g") {
		t.Error("histogram or gauge forked on repeated lookup")
	}
}

// TestNestedSpans builds a record -> profile -> sweep tree and checks the
// exported structure, durations, self times, and open flags.
func TestNestedSpans(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("sweep")
	rec := root.Start("record")
	time.Sleep(time.Millisecond)
	rec.End()
	prof := root.Start("profile")
	prof.Start("decode").End()
	prof.End()
	open := root.Start("report") // left open deliberately
	root.End()

	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("got %d roots, want 1", len(snap.Spans))
	}
	if len(snap.Histograms) != 0 {
		t.Errorf("spans registered histograms: %v", snap.Histograms)
	}
	rt := snap.Spans[0]
	if rt.Name != "sweep" || rt.Open || rt.DurNS <= 0 {
		t.Errorf("root: %+v", rt)
	}
	if len(rt.Children) != 3 {
		t.Fatalf("got %d children, want 3", len(rt.Children))
	}
	names := []string{rt.Children[0].Name, rt.Children[1].Name, rt.Children[2].Name}
	if names[0] != "record" || names[1] != "profile" || names[2] != "report" {
		t.Errorf("child order: %v", names)
	}
	if rt.Children[0].DurNS < int64(time.Millisecond) {
		t.Errorf("record span too short: %d ns", rt.Children[0].DurNS)
	}
	if len(rt.Children[1].Children) != 1 || rt.Children[1].Children[0].Name != "decode" {
		t.Errorf("profile subtree: %+v", rt.Children[1])
	}
	if !rt.Children[2].Open {
		t.Error("report span should still be open in the snapshot")
	}
	// Self time is the duration its children do not cover, clamped at
	// zero; a leaf's self time is its duration.
	for _, n := range []SpanNode{rt, rt.Children[1]} {
		self := n.DurNS
		for _, c := range n.Children {
			self -= c.DurNS
		}
		if self < 0 {
			self = 0
		}
		if n.SelfNS != self {
			t.Errorf("%s: self %d ns, want %d", n.Name, n.SelfNS, self)
		}
	}
	if leaf := rt.Children[0]; leaf.SelfNS != leaf.DurNS {
		t.Errorf("leaf record: self %d ns, want its duration %d", leaf.SelfNS, leaf.DurNS)
	}
	// A second End must not restart or extend the clock.
	d := rt.DurNS
	root.End()
	if got := r.Snapshot().Spans[0].DurNS; got != d {
		t.Errorf("double End changed duration: %d -> %d", d, got)
	}
	open.End()
}

// TestRegistryKeepsNewestRoots: a registry that opens more roots than
// maxRoots (a daemon opens one per computation) keeps exactly the newest
// maxRoots trees, oldest first.
func TestRegistryKeepsNewestRoots(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 2*maxRoots; i++ {
		sp := r.StartSpan(strconv.Itoa(i))
		sp.Start("stage").End()
		sp.End()
	}
	spans := r.Snapshot().Spans
	if len(spans) != maxRoots {
		t.Fatalf("snapshot holds %d roots, want the newest %d", len(spans), maxRoots)
	}
	for i, n := range spans {
		if want := strconv.Itoa(maxRoots + i); n.Name != want {
			t.Fatalf("root %d is %q, want %q", i, n.Name, want)
		}
	}
}

// TestSnapshotGoldenJSON pins the JSON serialisation on a hand-built
// snapshot (no wall-clock nondeterminism).
func TestSnapshotGoldenJSON(t *testing.T) {
	snap := &Snapshot{
		Counters: map[string]int64{"trace.accesses": 42, "exec.misses": 7},
		Gauges:   map[string]int64{"sweep.workers": 4},
		Histograms: map[string]HistogramStats{"trace.replay": {
			Count: 2, Sum: 3000, Min: 1000, Max: 2000, P50: 1024, P90: 2000, P99: 2000,
			Buckets: []HistogramBucket{{Le: 1023, Count: 1}, {Le: 2047, Count: 1}},
		}},
		Spans: []SpanNode{{
			Name: "sweep", DurNS: 5000,
			Children: []SpanNode{{Name: "record", DurNS: 2000}, {Name: "profile", DurNS: 3000, Open: true}},
		}},
	}
	var b strings.Builder
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "counters": {
    "exec.misses": 7,
    "trace.accesses": 42
  },
  "gauges": {
    "sweep.workers": 4
  },
  "histograms": {
    "trace.replay": {
      "count": 2,
      "sum": 3000,
      "min": 1000,
      "max": 2000,
      "p50": 1024,
      "p90": 2000,
      "p99": 2000,
      "buckets": [
        {
          "le": 1023,
          "count": 1
        },
        {
          "le": 2047,
          "count": 1
        }
      ]
    }
  },
  "spans": [
    {
      "name": "sweep",
      "dur_ns": 5000,
      "children": [
        {
          "name": "record",
          "dur_ns": 2000
        },
        {
          "name": "profile",
          "dur_ns": 3000,
          "open": true
        }
      ]
    }
  ]
}
`
	if b.String() != want {
		t.Errorf("JSON snapshot drifted:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWriteSpanTree pins the -v rendering on fixed durations.
func TestWriteSpanTree(t *testing.T) {
	snap := &Snapshot{Spans: []SpanNode{{
		Name: "sweep", DurNS: int64(5 * time.Millisecond),
		Children: []SpanNode{{Name: "profile", DurNS: int64(1500 * time.Microsecond), Open: true}},
	}}}
	var b strings.Builder
	if err := snap.WriteSpanTree(&b); err != nil {
		t.Fatal(err)
	}
	const want = "sweep  5ms\n  profile  1.5ms (open)\n"
	if b.String() != want {
		t.Errorf("span tree drifted:\ngot:\n%q\nwant:\n%q", b.String(), want)
	}
}

// TestCounterDelta checks snapshot-delta arithmetic against a nil and a
// real base.
func TestCounterDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	base := r.Snapshot()
	r.Counter("c").Add(3)
	r.Counter("new").Add(2)
	snap := r.Snapshot()
	if d := snap.CounterDelta(base, "c"); d != 3 {
		t.Errorf("delta c: got %d, want 3", d)
	}
	if d := snap.CounterDelta(base, "new"); d != 2 {
		t.Errorf("delta new: got %d, want 2", d)
	}
	if d := snap.CounterDelta(nil, "c"); d != 8 {
		t.Errorf("delta vs nil base: got %d, want 8", d)
	}
}

// TestNopZeroAlloc proves the disabled path allocates nothing: every
// metric and span operation on a nil registry must be a bare nil check.
func TestNopZeroAlloc(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("c").Add(1)
		r.Counter("c").Inc()
		_ = r.Counter("c").Value()
		r.Gauge("g").Set(3)
		r.Gauge("g").Max(4)
		r.Histogram("h").Record(7)
		r.Histogram("h").Observe(time.Second)
		_ = r.Histogram("h").Stats()
		hstop := r.Histogram("h").Start()
		hstop()
		sp := r.StartSpan("root")
		sp.Start("child").End()
		sp.End()
		_ = Or(nil)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates: %.1f allocs/op, want 0", allocs)
	}
}

// TestNilRegistrySnapshot: disabled registries still snapshot (empty), so
// teardown paths need no special casing.
func TestNilRegistrySnapshot(t *testing.T) {
	var r *Registry
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Spans) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	var b strings.Builder
	if err := snap.WriteSpanTree(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no spans") {
		t.Errorf("empty span tree rendering: %q", b.String())
	}
}

// TestDefaultSwap checks SetDefault returns the previous registry so
// sessions can restore it.
func TestDefaultSwap(t *testing.T) {
	orig := Default()
	defer SetDefault(orig)
	a := NewRegistry()
	if prev := SetDefault(a); prev != orig {
		t.Errorf("first swap returned %p, want %p", prev, orig)
	}
	if Default() != a {
		t.Error("Default did not observe the swap")
	}
	if prev := SetDefault(nil); prev != a {
		t.Errorf("second swap returned %p, want %p", prev, a)
	}
	if Default() != nil {
		t.Error("Default not disabled after SetDefault(nil)")
	}
	if Or(a) != a || Or(nil) != nil {
		t.Error("Or precedence wrong")
	}
}
