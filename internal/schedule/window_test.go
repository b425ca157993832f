package schedule

import (
	"errors"
	"testing"
	"time"

	"streamsched/internal/cachesim"
	"streamsched/internal/hierarchy"
	"streamsched/internal/obs"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// TestOneWindowOneHeader is what "one driver" promises: for every registry
// name on every graph shape, Measure, MeasureCurve, MeasureHier and
// MeasureHierPoint at the same (g, s, env, warm, measured) ran the same
// window, so their Run headers — firings, items, buffer words, latency —
// are identical, whatever each was counting, and whether or not the
// MeasureCurve window folded its steady state.
func TestOneWindowOneHeader(t *testing.T) {
	// split feeds a at twice b's rate; a's doubled stream is halved again
	// at the join, so the rates balance without being uniform.
	b := sdf.NewBuilder("inhdag")
	src, split := b.AddNode("src", 0), b.AddNode("split", 64)
	a, bb := b.AddNode("a", 96), b.AddNode("b", 48)
	join, sink := b.AddNode("join", 64), b.AddNode("sink", 0)
	b.Connect(src, split, 1, 1)
	b.Connect(split, a, 2, 1)
	b.Connect(split, bb, 1, 1)
	b.Connect(a, join, 1, 2)
	b.Connect(bb, join, 1, 1)
	b.Connect(join, sink, 1, 1)
	inhDag, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if inhDag.IsPipeline() || inhDag.IsHomogeneous() {
		t.Fatalf("%s is not an inhomogeneous dag", inhDag)
	}
	env := Env{M: 256, B: 16}
	spec := hierarchy.HierSpec{
		Block: env.B,
		L1s:   []hierarchy.Level{hierLv(256, 16, 0, cachesim.LRU)},
		L2s:   []hierarchy.Level{hierLv(2048, 16, 4, cachesim.LRU)},
	}
	// The second window is five and a half batches of T = M: long enough
	// for MeasureCurve to fold the flat schedules and the homogeneous
	// dag's partitioned one, while the other paths run every firing.
	sj := splitJoin(t, 3, 64)
	for _, w := range [][2]int64{{96, 320}, {256, 5*256 + 128}} {
		headers(t, env, spec, w[0], w[1], []*sdf.Graph{uniformPipeline(t, 10, 64), sj, inhDag}, w[1] > 5*env.M, sj)
	}
}

// headers checks one window on every graph under every registry name;
// with fold set, MeasureCurve must fold the flat schedule everywhere and
// the partitioned one on foldable.
func headers(t *testing.T, env Env, spec hierarchy.HierSpec, warm, measured int64, graphs []*sdf.Graph, fold bool, foldable *sdf.Graph) {
	t.Helper()
	for _, g := range graphs {
		for _, name := range []string{"flat", "scaled", "demand", "kohli", "partitioned"} {
			s, err := ByName(name, g, 3)
			if err != nil {
				t.Fatal(err)
			}
			mr, err := Measure(g, s, env, testCacheCfg(512), warm, measured)
			if err != nil {
				t.Fatalf("%s/%s Measure: %v", g.Name(), name, err)
			}
			reg := obs.NewRegistry()
			folding := env
			folding.Metrics = reg
			cr, err := MeasureCurve(g, s, folding, env.B, warm, measured)
			if err != nil {
				t.Fatalf("%s/%s MeasureCurve: %v", g.Name(), name, err)
			}
			if folded := reg.Counter("schedule.window.folded_periods").Value(); fold && folded == 0 && (name == "flat" || name == "partitioned" && g == foldable) {
				t.Errorf("%s/%s: MeasureCurve did not fold %d firings", g.Name(), name, measured)
			}
			hr, err := MeasureHier(g, s, env, spec, warm, measured)
			if err != nil {
				t.Fatalf("%s/%s MeasureHier: %v", g.Name(), name, err)
			}
			pt, err := MeasureHierPoint(g, s, env, spec.Config(0, 0), warm, measured)
			if err != nil {
				t.Fatalf("%s/%s MeasureHierPoint: %v", g.Name(), name, err)
			}
			want := mr.Run
			if want.Scheduler != s.Name() || want.Graph != g.Name() || want.SourceFired < measured ||
				want.InputItems <= 0 || want.BufferWords <= 0 || want.MaxLatency < 0 {
				t.Errorf("%s/%s: implausible header %+v", g.Name(), name, want)
			}
			for path, got := range map[string]Run{"MeasureCurve": cr.Run, "MeasureHier": hr.Run, "MeasureHierPoint": pt.Run} {
				if got != want {
					t.Errorf("%s/%s: %s header %+v, Measure's %+v", g.Name(), name, path, got, want)
				}
			}
		}
	}
}

// TestDaemonColdShapeFoldsFourPeriods pins the fold on the shape of the
// daemon's cold profile request: an FM-radio-shaped split-join — a 12-block
// low-pass, a demodulator, eight branches of two 12-block band-pass
// filters, a summer — partitioned at M = 512, B = 16, warm 512, measure
// 2560. The machine's state recurs one batch of 512 source firings after
// the mark, so the window records that one period, runs no second one, and
// counts the other four batches without running them — and the result
// equals the unfolded pass.
func TestDaemonColdShapeFoldsFourPeriods(t *testing.T) {
	const block, filter = 16, 12 * 16
	b := sdf.NewBuilder("fm-shaped")
	src, lpf := b.AddNode("antenna", 0), b.AddNode("lowpass", filter)
	demod, split := b.AddNode("demod", filter/4+1), b.AddNode("split", 1)
	sum, sink := b.AddNode("sum", 9), b.AddNode("speaker", 0)
	b.Connect(src, lpf, 1, 1)
	b.Connect(lpf, demod, 1, 1)
	b.Connect(demod, split, 1, 1)
	for range 8 {
		low, high := b.AddNode("low", filter), b.AddNode("high", filter)
		b.Connect(split, low, 1, 1)
		b.Connect(low, high, 1, 1)
		b.Connect(high, sum, 1, 1)
	}
	b.Connect(sum, sink, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := foldWindow(t, g, Partitioned(g, nil), Env{M: 512, B: block}, 512, 2560, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("folded %d periods, want 4", n)
	}
}

// TestWindowBudget: Env.Budget refuses, before anything runs, a window
// that cannot fold — demand-driven profiled with a two-way FIFO replica,
// whose contents no key compares — and whose warm-up and window are
// estimated past it, and runs one just inside it; the refusal is the
// request's fault. A window that folds runs its warm-up and looks for a
// recurrence only within the budget: a long window that recurs early runs,
// folded, to the unbudgeted result, and one whose search the budget cuts
// short is refused rather than run to its end.
func TestWindowBudget(t *testing.T) {
	b := sdf.NewBuilder("chain")
	src, f, h, sink := b.AddNode("src", 0), b.AddNode("f", 64), b.AddNode("h", 32), b.AddNode("sink", 0)
	b.Connect(src, f, 2, 1)
	b.Connect(f, h, 1, 2)
	b.Connect(h, sink, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const warm, measured = 64, 1024
	per := accessesPerFiring(g, 16)
	fifo := []trace.OrgSpec{{Sets: 1, FIFOWays: []int64{2}}}
	measure := func(name string, budget, measured int64, orgs []trace.OrgSpec) (*CurveResult, error) {
		t.Helper()
		s, err := ByName(name, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		return MeasureCurveOrgs(g, s, Env{M: 256, B: 16, Budget: budget}, 16, warm, measured, orgs)
	}
	cr, err := measure("demand", per*(warm+measured), measured, fifo)
	if err != nil {
		t.Fatalf("demand inside its budget: %v", err)
	}
	// An estimate: a push or pop that wraps its ring touches one block
	// more than its rate's whole blocks.
	if est := per * (cr.SourceFired + warm); cr.TraceLen < est || cr.TraceLen > est+est/10 {
		t.Errorf("demand made %d accesses; the estimate is %d", cr.TraceLen, est)
	}
	if _, err := measure("demand", per*(warm+measured)-1, measured, fifo); !errors.Is(err, ErrBudget) || !errors.Is(err, sdf.ErrUnprocessable) {
		t.Errorf("demand one access past its budget: %v, want ErrBudget", err)
	}
	const long = 1 << 40
	want, err := measure("flat", 0, long, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := measure("flat", per*(warm+1000), long, nil)
	if err != nil {
		t.Fatalf("flat folding within its budget: %v", err)
	}
	if got.Curve.Accesses != want.Curve.Accesses || got.Curve.MissesAtCapacity(128, 16) != want.Curve.MissesAtCapacity(128, 16) {
		t.Errorf("budgeted fold read %d accesses, %d misses at 128; unbudgeted %d, %d",
			got.Curve.Accesses, got.Curve.MissesAtCapacity(128, 16), want.Curve.Accesses, want.Curve.MissesAtCapacity(128, 16))
	}
	if _, err := measure("flat", per*warm, long, nil); !errors.Is(err, ErrBudget) {
		t.Errorf("flat with no budget left to look for a recurrence: %v, want ErrBudget", err)
	}
	// A scaled plan fires the source a step of scale firings at a time, so
	// a step past the budget is refused however short the window is.
	scaled, err := ByName("scaled", g, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := MeasureCurve(g, scaled, Env{M: 256, B: 16, Budget: per * (warm + measured)}, 16, warm, measured); !errors.Is(err, ErrBudget) || time.Since(start) > time.Second {
		t.Errorf("scaled with a step of 2^40 firings: %v after %v, want ErrBudget at once", err, time.Since(start))
	}
}
