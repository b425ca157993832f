package partition

import (
	"errors"
	"testing"

	"streamsched/internal/ratio"
	"streamsched/internal/sdf"
)

// pipelineGraph builds a unit-rate pipeline with the given states.
func pipelineGraph(t *testing.T, states ...int64) *sdf.Graph {
	t.Helper()
	b := sdf.NewBuilder("pipe")
	ids := make([]sdf.NodeID, len(states))
	for i, s := range states {
		ids[i] = b.AddNode(pipeName(i, len(states)), s)
	}
	b.Chain(ids...)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pipeName(i, n int) string {
	switch i {
	case 0:
		return "src"
	case n - 1:
		return "sink"
	default:
		return "f" + string(rune('0'+i%10))
	}
}

// diamondGraph builds src -> a, src -> b, a -> sink, b -> sink.
func diamondGraph(t *testing.T, sa, sb int64) *sdf.Graph {
	t.Helper()
	b := sdf.NewBuilder("diamond")
	src := b.AddNode("src", 0)
	a := b.AddNode("a", sa)
	c := b.AddNode("b", sb)
	sink := b.AddNode("sink", 0)
	b.Connect(src, a, 1, 1)
	b.Connect(src, c, 1, 1)
	b.Connect(a, sink, 1, 1)
	b.Connect(c, sink, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewCanonicalizes(t *testing.T) {
	g := pipelineGraph(t, 1, 1, 1, 1)
	// Components numbered backwards and sparsely: {3,3} then {7,7}.
	p, err := New(g, []int{3, 3, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 2 {
		t.Fatalf("K = %d, want 2", p.K)
	}
	if p.Assign[0] != 0 || p.Assign[1] != 0 || p.Assign[2] != 1 || p.Assign[3] != 1 {
		t.Errorf("assign = %v", p.Assign)
	}
	// Reversed numbering gets flipped to topological order.
	p2, err := New(g, []int{1, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Assign[0] != 0 || p2.Assign[3] != 1 {
		t.Errorf("assign = %v", p2.Assign)
	}
}

func TestNewRejectsNonWellOrdered(t *testing.T) {
	g := diamondGraph(t, 1, 1)
	// {src, sink} vs {a, b}: contracted graph is cyclic.
	if _, err := New(g, []int{0, 1, 1, 0}); !errors.Is(err, ErrNotWellOrdered) {
		t.Errorf("err = %v, want ErrNotWellOrdered", err)
	}
	if _, err := New(g, []int{0, -1, 0, 0}); err == nil {
		t.Error("negative component accepted")
	}
}

func TestBandwidthHomogeneous(t *testing.T) {
	g := pipelineGraph(t, 1, 1, 1, 1)
	p, err := New(g, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := p.Bandwidth(g)
	if err != nil {
		t.Fatal(err)
	}
	if bw.Cmp(ratio.One()) != 0 {
		t.Errorf("bandwidth = %v, want 1 (single unit cross edge)", bw)
	}
	if p.BandwidthScaled(g) != 1 {
		t.Errorf("scaled = %d", p.BandwidthScaled(g))
	}
	if n := len(p.CrossEdges(g)); n != 1 {
		t.Errorf("cross edges = %d", n)
	}
}

func TestBandwidthInhomogeneous(t *testing.T) {
	// src -3:1-> a -1:1-> b -1:3-> sink; gain(src->a edge) = 3,
	// gain(a->b) = 3, gain(b->sink) = 3... wait reps: src=1,a=3,b=3,sink=1.
	b := sdf.NewBuilder("inh")
	src := b.AddNode("src", 0)
	a := b.AddNode("a", 4)
	bb := b.AddNode("b", 4)
	sink := b.AddNode("sink", 0)
	b.Connect(src, a, 3, 1)
	b.Connect(a, bb, 1, 1)
	b.Connect(bb, sink, 3, 9)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Cut between a and b: cross edge gain = gain(a)*out = 3*1 = 3.
	p, err := New(g, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := p.Bandwidth(g)
	if err != nil {
		t.Fatal(err)
	}
	if bw.Cmp(ratio.FromInt(3)) != 0 {
		t.Errorf("bandwidth = %v, want 3", bw)
	}
}

func TestValidate(t *testing.T) {
	g := pipelineGraph(t, 5, 5, 5, 5)
	p, _ := New(g, []int{0, 0, 1, 1})
	if err := p.Validate(g, 10); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	if err := p.Validate(g, 9); !errors.Is(err, ErrOverBound) {
		t.Errorf("err = %v, want ErrOverBound", err)
	}
	short := &Partition{Assign: []int{0, 0}, K: 1}
	if err := short.Validate(g, 100); err == nil {
		t.Error("short assignment accepted")
	}
}

func TestSingletonWhole(t *testing.T) {
	g := diamondGraph(t, 2, 3)
	s := Singleton(g)
	if s.K != 4 || s.BandwidthScaled(g) != 4 {
		t.Errorf("singleton: K=%d bw=%d", s.K, s.BandwidthScaled(g))
	}
	if err := s.Validate(g, 3); err != nil {
		t.Errorf("singleton invalid: %v", err)
	}
	w := Whole(g)
	if w.K != 1 || w.BandwidthScaled(g) != 0 {
		t.Errorf("whole: K=%d bw=%d", w.K, w.BandwidthScaled(g))
	}
	if len(w.CrossEdges(g)) != 0 {
		t.Error("whole partition has cross edges")
	}
}

func TestMembersAndState(t *testing.T) {
	g := pipelineGraph(t, 1, 2, 3, 4)
	p, _ := New(g, []int{0, 0, 1, 1})
	mem := p.Members(g)
	if len(mem) != 2 || len(mem[0]) != 2 || mem[1][0] != 2 {
		t.Errorf("members = %v", mem)
	}
	if p.ComponentState(g, 0) != 3 || p.ComponentState(g, 1) != 7 {
		t.Error("component state wrong")
	}
	if p.MaxComponentState(g) != 7 {
		t.Error("max component state wrong")
	}
}

func TestComponentDegree(t *testing.T) {
	g := diamondGraph(t, 1, 1)
	p, _ := New(g, []int{0, 0, 1, 1}) // cross: src->b, a->sink
	deg := p.ComponentDegree(g)
	if deg[0] != 2 || deg[1] != 2 {
		t.Errorf("degrees = %v", deg)
	}
}

func TestChainOrder(t *testing.T) {
	g := pipelineGraph(t, 1, 1, 1)
	order, edges, err := ChainOrder(g)
	if err != nil || len(order) != 3 || len(edges) != 2 {
		t.Fatalf("chain order: %v %v %v", order, edges, err)
	}
	d := diamondGraph(t, 1, 1)
	if _, _, err := ChainOrder(d); !errors.Is(err, ErrNotPipeline) {
		t.Errorf("err = %v, want ErrNotPipeline", err)
	}
}

func TestTheorem5Segments(t *testing.T) {
	// 8 modules of state 3, M=4: segments close when state > 8.
	// Cumulative: 3,6,9 -> close at 3 nodes (state 9). Remaining 15 >= 8.
	// Next: 3,6,9 -> close (state 9). Remaining 6 < 8 -> fold into last.
	g := pipelineGraph(t, 3, 3, 3, 3, 3, 3, 3, 3)
	segs, err := Theorem5Segments(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments = %+v", segs)
	}
	if segs[0].First != 0 || segs[0].Last != 2 || segs[0].State != 9 {
		t.Errorf("seg0 = %+v", segs[0])
	}
	if segs[1].First != 3 || segs[1].Last != 7 || segs[1].State != 15 {
		t.Errorf("seg1 = %+v", segs[1])
	}
	for _, s := range segs {
		if s.GainMin < 0 {
			t.Errorf("segment %+v has no gain-min edge", s)
		}
	}
}

func TestPipelineTheorem5Bounds(t *testing.T) {
	// 16 modules of state M/2: components must be <= 8M and well ordered.
	m := int64(64)
	states := make([]int64, 16)
	for i := range states {
		states[i] = m / 2
	}
	g := pipelineGraph(t, states...)
	p, err := PipelineTheorem5(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g, 8*m); err != nil {
		t.Errorf("Theorem 5 partition invalid: %v", err)
	}
	if p.K < 2 {
		t.Errorf("expected multiple components, got %d", p.K)
	}
	// Small graph collapses to one component.
	small := pipelineGraph(t, 4, 4, 4)
	ps, err := PipelineTheorem5(small, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ps.K != 1 {
		t.Errorf("small pipeline K = %d, want 1", ps.K)
	}
	if _, err := PipelineTheorem5(g, 0); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := PipelineTheorem5(diamondGraph(t, 1, 1), 4); !errors.Is(err, ErrNotPipeline) {
		t.Errorf("err = %v, want ErrNotPipeline", err)
	}
}

func TestTheorem5CutsAtGainMinEdges(t *testing.T) {
	// Inhomogeneous pipeline with a cheap interior edge; the cut must land
	// there. src(0) -4:1-> a(6) -1:4-> b(6) -1:1-> c(6) -4:1-> sink(0).
	// reps: src 1, a 4, b 1, c 1, sink 4.
	// Edge gains (items per source firing): 4, 4, 1, 4 — b->c is cheapest.
	g := downsamplerPipeline(t)
	// M = 4: total state 18 > 2M = 8. Cumulative src 0, a 6, b 12 exceeds
	// 8 but remaining (c+sink) = 6 < 8, so everything folds into a single
	// segment; its gain-min edge is b->c (gain 1). One cut, two components.
	p, err := PipelineTheorem5(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 2 {
		t.Fatalf("K = %d, want 2 (assign %v)", p.K, p.Assign)
	}
	cross := p.CrossEdges(g)
	bID, _ := g.NodeByName("b")
	cID, _ := g.NodeByName("c")
	if len(cross) != 1 || g.Edge(cross[0]).From != bID || g.Edge(cross[0]).To != cID {
		t.Errorf("cut edge = %v, want b->c", cross)
	}
}

// downsamplerPipeline builds src -4:1-> a -1:4-> b -1:1-> c -4:1-> sink with
// 6-word middle states. Edge gains are 4, 4, 1, 4: b->c is the unique
// gain-minimizing interior edge.
func downsamplerPipeline(t *testing.T) *sdf.Graph {
	t.Helper()
	b := sdf.NewBuilder("downsampler")
	src := b.AddNode("src", 0)
	a := b.AddNode("a", 6)
	bb := b.AddNode("b", 6)
	c := b.AddNode("c", 6)
	sink := b.AddNode("sink", 0)
	b.Connect(src, a, 4, 1)
	b.Connect(a, bb, 1, 4)
	b.Connect(bb, c, 1, 1)
	b.Connect(c, sink, 4, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPipelineOptimalDP(t *testing.T) {
	// States 4,4,4,4 with bound 8: optimal is 2 components, 1 cross edge.
	g := pipelineGraph(t, 4, 4, 4, 4)
	p, err := PipelineOptimalDP(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g, 8); err != nil {
		t.Error(err)
	}
	if p.BandwidthScaled(g) != 1 {
		t.Errorf("bw = %d, want 1", p.BandwidthScaled(g))
	}
	// Whole graph fits: zero bandwidth.
	p2, err := PipelineOptimalDP(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p2.K != 1 || p2.BandwidthScaled(g) != 0 {
		t.Errorf("K=%d bw=%d, want 1,0", p2.K, p2.BandwidthScaled(g))
	}
	// Infeasible: single module over bound.
	if _, err := PipelineOptimalDP(g, 3); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestPipelineDPPrefersCheapCut(t *testing.T) {
	// With bound 12 the only single-cut option is the gain-1 edge b->c
	// ({src,a,b} = 12 words, {c,sink} = 6); the DP must find bandwidth 1
	// rather than cutting any gain-4 edge.
	g := downsamplerPipeline(t)
	p, err := PipelineOptimalDP(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	bw := p.BandwidthScaled(g)
	if bw != 1 {
		t.Errorf("bw = %d, want 1 (cut the gain-1 edge)", bw)
	}
	for _, e := range p.CrossEdges(g) {
		if EdgeGainScaled(g, e) == 4 {
			t.Error("DP cut an expensive edge")
		}
	}
}

func TestIntervalDPRejectsBadOrder(t *testing.T) {
	g := pipelineGraph(t, 1, 1, 1)
	if _, err := IntervalDP(g, 10, []sdf.NodeID{2, 1, 0}); err == nil {
		t.Error("bad order accepted")
	}
	if _, err := IntervalDP(g, 10, nil); err == nil {
		t.Error("nil order accepted")
	}
}

func TestBestInterval(t *testing.T) {
	g := diamondGraph(t, 4, 4)
	p, err := BestInterval(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g, 8); err != nil {
		t.Error(err)
	}
}

func TestLocalSearchImproves(t *testing.T) {
	// Pipeline cut at a bad place: local search should fix or at least not
	// worsen it.
	g := pipelineGraph(t, 2, 2, 2, 2, 2, 2)
	bad, _ := New(g, []int{0, 1, 1, 2, 2, 2}) // bw = 2
	refined, err := LocalSearch(g, bad, 6, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if refined.BandwidthScaled(g) > bad.BandwidthScaled(g) {
		t.Error("local search worsened bandwidth")
	}
	if err := refined.Validate(g, 6); err != nil {
		t.Error(err)
	}
	if _, err := LocalSearch(g, bad, 1, 1, 0); err == nil {
		t.Error("invalid input partition accepted")
	}
}

func TestAgglomerative(t *testing.T) {
	g := diamondGraph(t, 2, 2)
	p, err := Agglomerative(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Everything fits: should merge to a single component.
	if p.K != 1 {
		t.Errorf("K = %d, want 1 (assign %v)", p.K, p.Assign)
	}
	p2, err := Agglomerative(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Validate(g, 2); err != nil {
		t.Error(err)
	}
	// Bound 2 cannot put both state-2 nodes in one component, so at least
	// two components must remain (e.g. {src,a} and {b,sink}).
	if p2.K < 2 {
		t.Errorf("K = %d, want >= 2 under bound 2", p2.K)
	}
}

func TestExactSmallPipeline(t *testing.T) {
	g := pipelineGraph(t, 4, 4, 4, 4)
	p, err := Exact(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.BandwidthScaled(g) != 1 {
		t.Errorf("exact bw = %d, want 1", p.BandwidthScaled(g))
	}
	// Exact must agree with the pipeline DP on pipelines.
	dp, err := PipelineOptimalDP(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dp.BandwidthScaled(g) != p.BandwidthScaled(g) {
		t.Error("exact and pipeline DP disagree")
	}
}

func TestExactErrors(t *testing.T) {
	big := sdf.NewBuilder("big")
	prev := big.AddNode("n0", 1)
	for i := 1; i < MaxExactNodes+2; i++ {
		cur := big.AddNode("n", 1)
		big.Connect(prev, cur, 1, 1)
		prev = cur
	}
	g, err := big.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exact(g, 10); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
	small := pipelineGraph(t, 9, 1)
	if _, err := Exact(small, 8); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// bruteForceMinBW enumerates every well-ordered bound-bounded partition of
// a small graph by assigning nodes (in topological order) to components
// forming a chain of ideals, and returns the minimum scaled bandwidth.
func bruteForceMinBW(t *testing.T, g *sdf.Graph, bound int64) int64 {
	t.Helper()
	n := g.NumNodes()
	if n > 10 {
		t.Fatal("brute force limited to 10 nodes")
	}
	best := int64(-1)
	assign := make([]int, n)
	var rec func(pos, maxComp int)
	rec = func(pos, maxComp int) {
		if pos == n {
			p, err := New(g, append([]int(nil), assign...))
			if err != nil {
				return // not well ordered
			}
			if p.MaxComponentState(g) > bound {
				return
			}
			if bw := p.BandwidthScaled(g); best < 0 || bw < best {
				best = bw
			}
			return
		}
		v := int(g.Topo()[pos])
		for c := 0; c <= maxComp+1 && c < n; c++ {
			assign[v] = c
			next := maxComp
			if c > maxComp {
				next = c
			}
			rec(pos+1, next)
		}
	}
	rec(0, -1)
	return best
}

func TestExactMatchesBruteForceDiamond(t *testing.T) {
	g := diamondGraph(t, 3, 3)
	for _, bound := range []int64{3, 6, 100} {
		p, err := Exact(g, bound)
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		want := bruteForceMinBW(t, g, bound)
		if got := p.BandwidthScaled(g); got != want {
			t.Errorf("bound %d: exact = %d, brute force = %d", bound, got, want)
		}
		if err := p.Validate(g, bound); err != nil {
			t.Errorf("bound %d: %v", bound, err)
		}
	}
}

func TestExactMatchesBruteForceLayered(t *testing.T) {
	// Two-layer dag: src -> {a,b,c} -> join -> sink with varying states.
	b := sdf.NewBuilder("layered")
	src := b.AddNode("src", 0)
	a := b.AddNode("a", 2)
	bb := b.AddNode("b", 3)
	c := b.AddNode("c", 4)
	join := b.AddNode("join", 2)
	sink := b.AddNode("sink", 0)
	for _, mid := range []sdf.NodeID{a, bb, c} {
		b.Connect(src, mid, 1, 1)
		b.Connect(mid, join, 1, 1)
	}
	b.Connect(join, sink, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []int64{4, 6, 9, 100} {
		p, err := Exact(g, bound)
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		want := bruteForceMinBW(t, g, bound)
		if got := p.BandwidthScaled(g); got != want {
			t.Errorf("bound %d: exact = %d, brute force = %d", bound, got, want)
		}
	}
}

func TestHeuristicsNeverBeatExact(t *testing.T) {
	g := diamondGraph(t, 3, 5)
	for _, bound := range []int64{5, 8, 20} {
		exact, err := Exact(g, bound)
		if err != nil {
			t.Fatal(err)
		}
		lo := exact.BandwidthScaled(g)
		if p, err := BestInterval(g, bound); err != nil {
			t.Fatal(err)
		} else if p.BandwidthScaled(g) < lo {
			t.Errorf("interval beat exact at bound %d", bound)
		}
		if p, err := Agglomerative(g, bound); err != nil {
			t.Fatal(err)
		} else if p.BandwidthScaled(g) < lo {
			t.Errorf("agglomerative beat exact at bound %d", bound)
		}
	}
}

func TestAuto(t *testing.T) {
	pipe := pipelineGraph(t, 4, 4, 4, 4)
	p, err := Auto(pipe, 8)
	if err != nil || p.BandwidthScaled(pipe) != 1 {
		t.Errorf("auto pipeline: %v, %v", p, err)
	}
	d := diamondGraph(t, 3, 3)
	p2, err := Auto(d, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Validate(d, 6); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := pipelineGraph(t, 1, 1)
	p, _ := New(g, []int{0, 1})
	q := p.Clone()
	q.Assign[0] = 1
	if p.Assign[0] == 1 {
		t.Error("clone shares assignment")
	}
	if p.String() == "" {
		t.Error("String empty")
	}
}
