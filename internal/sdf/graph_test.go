package sdf

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"streamsched/internal/ratio"
)

// chain builds src -> f1 -> ... -> f(n-2) -> sink with unit rates and the
// given states.
func chain(t *testing.T, states ...int64) *Graph {
	t.Helper()
	b := NewBuilder("chain")
	ids := make([]NodeID, len(states))
	for i, s := range states {
		ids[i] = b.AddNode(nodeName(i, len(states)), s)
	}
	b.Chain(ids...)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("chain build: %v", err)
	}
	return g
}

func nodeName(i, n int) string {
	switch i {
	case 0:
		return "src"
	case n - 1:
		return "sink"
	default:
		return "f" + string(rune('0'+i))
	}
}

// diamond builds src -> a, src -> b, a -> sink, b -> sink (homogeneous).
func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("diamond")
	src := b.AddNode("src", 0)
	a := b.AddNode("a", 10)
	c := b.AddNode("b", 20)
	sink := b.AddNode("sink", 0)
	b.Connect(src, a, 1, 1)
	b.Connect(src, c, 1, 1)
	b.Connect(a, sink, 1, 1)
	b.Connect(c, sink, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("diamond build: %v", err)
	}
	return g
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := NewBuilder("e").Build(); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestBuildRejectsBadRates(t *testing.T) {
	b := NewBuilder("bad")
	x := b.AddNode("x", 1)
	y := b.AddNode("y", 1)
	b.Connect(x, y, 0, 1)
	if _, err := b.Build(); !errors.Is(err, ErrBadRate) {
		t.Errorf("err = %v, want ErrBadRate", err)
	}
}

func TestBuildRejectsNegativeState(t *testing.T) {
	b := NewBuilder("bad")
	b.AddNode("x", -1)
	if _, err := b.Build(); !errors.Is(err, ErrBadState) {
		t.Errorf("err = %v, want ErrBadState", err)
	}
}

// TestBuildRejectsStateOverflow: a graph whose total state does not fit in
// int64 is refused — it used to build with a negative TotalState, which
// every capacity comparison downstream then read as "fits". A total of
// exactly MaxInt64 still builds.
func TestBuildRejectsStateOverflow(t *testing.T) {
	b := NewBuilder("huge")
	b.Chain(b.AddNode("src", 16), b.AddNode("a", 1<<62), b.AddNode("sink", 1<<62))
	if g, err := b.Build(); !errors.Is(err, ErrBadState) {
		t.Errorf("two 2^62-word modules: err = %v, want ErrBadState (graph %v)", err, g)
	}
	g := chain(t, 0, 1<<62-1, 1<<62)
	if g.TotalState() != math.MaxInt64 || g.MaxState() != 1<<62 {
		t.Errorf("state totals = %d,%d", g.TotalState(), g.MaxState())
	}
}

func TestBuildRejectsBadNodeID(t *testing.T) {
	b := NewBuilder("bad")
	x := b.AddNode("x", 1)
	b.Connect(x, NodeID(7), 1, 1)
	if _, err := b.Build(); !errors.Is(err, ErrBadNode) {
		t.Errorf("err = %v, want ErrBadNode", err)
	}
}

func TestBuildRejectsCycle(t *testing.T) {
	b := NewBuilder("cyc")
	src := b.AddNode("src", 0)
	x := b.AddNode("x", 1)
	y := b.AddNode("y", 1)
	sink := b.AddNode("sink", 0)
	b.Connect(src, x, 1, 1)
	b.Connect(x, y, 1, 1)
	b.Connect(y, x, 1, 1) // cycle x <-> y; also makes indegree/outdegree nonzero
	b.Connect(y, sink, 1, 1)
	_, err := b.Build()
	if !errors.Is(err, ErrCyclic) {
		t.Errorf("err = %v, want ErrCyclic", err)
	}
}

func TestBuildRejectsMultiSourceAndSink(t *testing.T) {
	b := NewBuilder("ms")
	s1 := b.AddNode("s1", 0)
	s2 := b.AddNode("s2", 0)
	j := b.AddNode("j", 1)
	k := b.AddNode("k", 1)
	b.Connect(s1, j, 1, 1)
	b.Connect(s2, j, 1, 1)
	b.Connect(j, k, 1, 1)
	if _, err := b.Build(); !errors.Is(err, ErrMultiSource) {
		t.Errorf("err = %v, want ErrMultiSource", err)
	}

	b2 := NewBuilder("msk")
	s := b2.AddNode("s", 0)
	a := b2.AddNode("a", 1)
	t1 := b2.AddNode("t1", 0)
	t2 := b2.AddNode("t2", 0)
	b2.Connect(s, a, 1, 1)
	b2.Connect(a, t1, 1, 1)
	b2.Connect(a, t2, 1, 1)
	if _, err := b2.Build(); !errors.Is(err, ErrMultiSink) {
		t.Errorf("err = %v, want ErrMultiSink", err)
	}
}

func TestBuildRejectsDisconnected(t *testing.T) {
	b := NewBuilder("disc")
	s := b.AddNode("s", 0)
	a := b.AddNode("a", 1)
	b.Connect(s, a, 1, 1)
	// Island pair with its own source+sink would trip multi-source first,
	// so connect the island internally; s2->a2 makes two sources. To hit
	// the connectivity check specifically we need one source, one sink,
	// impossible while disconnected in a dag... so accept either error.
	s2 := b.AddNode("s2", 0)
	a2 := b.AddNode("a2", 1)
	b.Connect(s2, a2, 1, 1)
	_, err := b.Build()
	if err == nil {
		t.Fatal("disconnected graph accepted")
	}
	if !errors.Is(err, ErrMultiSource) && !errors.Is(err, ErrDisconnected) {
		t.Errorf("err = %v, want multi-source or disconnected", err)
	}
}

func TestBuildRejectsRateMismatch(t *testing.T) {
	// Diamond with inconsistent path products: top path multiplies by 2,
	// bottom path by 3.
	b := NewBuilder("mismatch")
	src := b.AddNode("src", 0)
	a := b.AddNode("a", 1)
	c := b.AddNode("c", 1)
	sink := b.AddNode("sink", 0)
	b.Connect(src, a, 2, 1) // a fires 2x per src firing
	b.Connect(src, c, 3, 1) // c fires 3x
	b.Connect(a, sink, 1, 1)
	b.Connect(c, sink, 1, 1) // sink cannot fire at both 2x and 3x
	if _, err := b.Build(); !errors.Is(err, ErrRateMismatch) {
		t.Errorf("err = %v, want ErrRateMismatch", err)
	}
}

func TestSingleNodeGraph(t *testing.T) {
	b := NewBuilder("solo")
	b.AddNode("only", 5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if g.Source() != g.Sink() {
		t.Error("single node should be both source and sink")
	}
	if g.Repetitions(0) != 1 {
		t.Errorf("reps = %d, want 1", g.Repetitions(0))
	}
}

func TestChainBasics(t *testing.T) {
	g := chain(t, 0, 10, 20, 30, 0)
	if !g.IsPipeline() || !g.IsHomogeneous() {
		t.Error("chain should be homogeneous pipeline")
	}
	if g.Source() != 0 || g.Sink() != 4 {
		t.Errorf("endpoints = %d,%d", g.Source(), g.Sink())
	}
	if g.TotalState() != 60 || g.MaxState() != 30 {
		t.Errorf("state totals = %d,%d", g.TotalState(), g.MaxState())
	}
	for v := 0; v < 5; v++ {
		if g.Repetitions(NodeID(v)) != 1 {
			t.Errorf("reps[%d] = %d, want 1", v, g.Repetitions(NodeID(v)))
		}
		if g.Gain(NodeID(v)).Cmp(ratio.One()) != 0 {
			t.Errorf("gain[%d] = %v, want 1", v, g.Gain(NodeID(v)))
		}
	}
	if g.StateOf([]NodeID{1, 3}) != 40 {
		t.Error("StateOf wrong")
	}
}

func TestRepetitionVectorClassic(t *testing.T) {
	// Lee & Messerschmitt style: A --(2:3)--> B --(3:2)--> C.
	// Balance: 2a = 3b, 3b = 2c => a=3, b=2, c=3 (smallest integers).
	b := NewBuilder("lm")
	a := b.AddNode("A", 1)
	bb := b.AddNode("B", 1)
	c := b.AddNode("C", 1)
	b.Connect(a, bb, 2, 3)
	b.Connect(bb, c, 3, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	want := []int64{3, 2, 3}
	for v, w := range want {
		if g.Repetitions(NodeID(v)) != w {
			t.Errorf("reps[%d] = %d, want %d", v, g.Repetitions(NodeID(v)), w)
		}
	}
	// gain(B) = 2/3, gain(C) = 1.
	if g.Gain(1).Cmp(ratio.MustNew(2, 3)) != 0 {
		t.Errorf("gain(B) = %v, want 2/3", g.Gain(1))
	}
	if g.Gain(2).Cmp(ratio.One()) != 0 {
		t.Errorf("gain(C) = %v, want 1", g.Gain(2))
	}
	// edge gains: gain(A->B) = gain(A)*out = 2; gain(B->C) = (2/3)*3 = 2.
	if g.EdgeGain(0).Cmp(ratio.FromInt(2)) != 0 {
		t.Errorf("edgeGain(0) = %v, want 2", g.EdgeGain(0))
	}
	if g.EdgeGain(1).Cmp(ratio.FromInt(2)) != 0 {
		t.Errorf("edgeGain(1) = %v, want 2", g.EdgeGain(1))
	}
	if g.IsHomogeneous() {
		t.Error("2:3 graph reported homogeneous")
	}
	if !g.IsPipeline() {
		t.Error("3-chain should be a pipeline")
	}
}

func TestUpDownSampler(t *testing.T) {
	// src -1:1-> up -3:1-> body -1:3-> down -1:1-> sink
	b := NewBuilder("updown")
	src := b.AddNode("src", 0)
	up := b.AddNode("up", 4)
	body := b.AddNode("body", 8)
	down := b.AddNode("down", 4)
	sink := b.AddNode("sink", 0)
	b.Connect(src, up, 1, 1)
	b.Connect(up, body, 3, 1)
	b.Connect(body, down, 1, 3)
	b.Connect(down, sink, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// reps: src=1, up=1, body=3, down=1, sink=1
	want := []int64{1, 1, 3, 1, 1}
	for v, w := range want {
		if g.Repetitions(NodeID(v)) != w {
			t.Errorf("reps[%d] = %d, want %d", v, g.Repetitions(NodeID(v)), w)
		}
	}
	if g.Gain(2).Cmp(ratio.FromInt(3)) != 0 {
		t.Errorf("gain(body) = %v, want 3", g.Gain(2))
	}
}

func TestDiamondAndQuotient(t *testing.T) {
	g := diamond(t)
	if g.IsPipeline() {
		t.Error("diamond is not a pipeline")
	}
	if !g.IsHomogeneous() {
		t.Error("diamond should be homogeneous")
	}
	// Partition {src,a} {b,sink}: cross edges src->b and a->sink; contracted
	// graph has edges 0->1 only: acyclic.
	ok, err := g.QuotientAcyclic([]int{0, 0, 1, 1}, 2)
	if err != nil || !ok {
		t.Errorf("quotient acyclic = %v, %v; want true", ok, err)
	}
	// Partition {src,sink} {a,b}: edges 0->1 (src->a) and 1->0 (a->sink):
	// cyclic, not well ordered.
	ok, err = g.QuotientAcyclic([]int{0, 1, 1, 0}, 2)
	if err != nil || ok {
		t.Errorf("quotient acyclic = %v, %v; want false", ok, err)
	}
}

func TestQuotientErrors(t *testing.T) {
	g := diamond(t)
	if _, err := g.Quotient([]int{0, 0}, 1); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := g.Quotient([]int{0, 0, 0, 5}, 2); err == nil {
		t.Error("out-of-range component accepted")
	}
	if _, err := g.Quotient([]int{0, 0, 0, 0}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestComponentTopoOrder(t *testing.T) {
	g := chain(t, 0, 1, 1, 1, 0)
	order, err := g.ComponentTopoOrder([]int{1, 1, 0, 0, 2}, 3)
	if err != nil {
		t.Fatalf("order: %v", err)
	}
	// Component 1 = {src,f1} precedes 0 = {f2,f3} precedes 2 = {sink}.
	want := []int{1, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if _, err := g.ComponentTopoOrder([]int{0, 1, 0, 1, 0}, 2); err == nil {
		t.Error("cyclic contraction accepted")
	}
}

func TestTopoValid(t *testing.T) {
	g := diamond(t)
	if !g.IsLinearExtension(g.Topo()) {
		t.Error("canonical topo order is not a valid linear extension")
	}
}

func TestLinearExtensions(t *testing.T) {
	g := diamond(t)
	for _, kind := range OrderKinds() {
		ord := g.LinearExtension(kind)
		if !g.IsLinearExtension(ord) {
			t.Errorf("%v order invalid: %v", kind, ord)
		}
	}
	if OrderDFS.String() != "dfs" || OrderKind(99).String() != "unknown" {
		t.Error("OrderKind.String wrong")
	}
}

func TestIsLinearExtensionRejects(t *testing.T) {
	g := chain(t, 0, 1, 0)
	if g.IsLinearExtension([]NodeID{0, 1}) {
		t.Error("short order accepted")
	}
	if g.IsLinearExtension([]NodeID{0, 0, 1}) {
		t.Error("duplicate order accepted")
	}
	if g.IsLinearExtension([]NodeID{2, 1, 0}) {
		t.Error("anti-topological order accepted")
	}
}

func TestReaches(t *testing.T) {
	g := diamond(t)
	if !g.Reaches(0, 3) || !g.Reaches(0, 1) || !g.Reaches(1, 3) {
		t.Error("reachability false negatives")
	}
	if g.Reaches(1, 2) || g.Reaches(3, 0) || g.Reaches(1, 1) {
		t.Error("reachability false positives")
	}
}

func TestMinBuf(t *testing.T) {
	b := NewBuilder("mb")
	x := b.AddNode("x", 1)
	y := b.AddNode("y", 1)
	b.Connect(x, y, 3, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if g.MinBuf(0) != 5 {
		t.Errorf("MinBuf = %d, want 5", g.MinBuf(0))
	}
}

func TestNodeByName(t *testing.T) {
	g := chain(t, 0, 1, 0)
	if id, ok := g.NodeByName("sink"); !ok || id != 2 {
		t.Errorf("NodeByName(sink) = %d,%v", id, ok)
	}
	if _, ok := g.NodeByName("nope"); ok {
		t.Error("NodeByName(nope) found")
	}
}

func TestStringSummaries(t *testing.T) {
	g := chain(t, 0, 1, 0)
	s := g.String()
	for _, want := range []string{"pipeline", "homogeneous", "3 modules", "2 channels"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	b := NewBuilder("rt")
	src := b.AddNode("src", 0)
	f := b.AddNode("f", 7)
	sink := b.AddNode("sink", 0)
	b.Connect(src, f, 2, 1)
	b.Connect(f, sink, 1, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if g2.NumNodes() != 3 || g2.NumEdges() != 2 || g2.Name() != "rt" {
		t.Errorf("round trip mismatch: %v", g2)
	}
	if g2.Node(1).State != 7 || g2.Edge(1).In != 4 {
		t.Error("round trip field mismatch")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Error("garbage accepted")
	}
	// Valid JSON, invalid graph (cycle).
	js := `{"name":"x","nodes":[{"name":"s","state":0},{"name":"a","state":1},{"name":"b","state":1},{"name":"t","state":0}],
	 "edges":[{"from":0,"to":1,"out":1,"in":1},{"from":1,"to":2,"out":1,"in":1},{"from":2,"to":1,"out":1,"in":1},{"from":2,"to":3,"out":1,"in":1}]}`
	if _, err := ReadJSON(strings.NewReader(js)); !errors.Is(err, ErrCyclic) {
		t.Errorf("err = %v, want ErrCyclic", err)
	}
}

// TestReadJSONRejectsUnknownMembers: a member the format does not have is
// an error naming it, at every level. A misspelt "state" used to be
// dropped, building a module of state 0.
func TestReadJSONRejectsUnknownMembers(t *testing.T) {
	for name, js := range map[string]string{
		"stat": `{"name":"x","nodes":[{"name":"s","stat":16},{"name":"t","state":0}],"edges":[{"from":0,"to":1,"out":1,"in":1}]}`,
		"kind": `{"name":"x","kind":"dag","nodes":[{"name":"s","state":16},{"name":"t","state":0}],"edges":[{"from":0,"to":1,"out":1,"in":1}]}`,
		"rate": `{"name":"x","nodes":[{"name":"s","state":16},{"name":"t","state":0}],"edges":[{"from":0,"to":1,"out":1,"in":1,"rate":2}]}`,
	} {
		_, err := ReadJSON(strings.NewReader(js))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+name+`"`) {
			t.Errorf("graph with a %q member: err %v, want one naming it", name, err)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, nil, 0); err != nil {
		t.Fatalf("dot: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "n0 -> n1", "n2 -> n3"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	buf.Reset()
	if err := g.WriteDOT(&buf, []int{0, 0, 1, 1}, 2); err != nil {
		t.Fatalf("dot clustered: %v", err)
	}
	if !strings.Contains(buf.String(), "cluster_1") {
		t.Error("clustered dot missing cluster")
	}
}

func TestDegreeAndEdgesAccessors(t *testing.T) {
	g := diamond(t)
	if g.Degree(0) != 2 || g.Degree(1) != 2 || g.Degree(3) != 2 {
		t.Error("degrees wrong")
	}
	if len(g.OutEdges(0)) != 2 || len(g.InEdges(3)) != 2 {
		t.Error("edge lists wrong")
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Error("counts wrong")
	}
}

func TestParallelEdgesMultigraph(t *testing.T) {
	// Two parallel channels between the same pair of modules with
	// consistent rates: a valid multigraph.
	b := NewBuilder("multi")
	x := b.AddNode("x", 1)
	y := b.AddNode("y", 1)
	b.Connect(x, y, 2, 2)
	b.Connect(x, y, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Error("parallel edge lost")
	}
	// Inconsistent parallel rates must be rejected.
	b2 := NewBuilder("multibad")
	x2 := b2.AddNode("x", 1)
	y2 := b2.AddNode("y", 1)
	b2.Connect(x2, y2, 2, 1)
	b2.Connect(x2, y2, 1, 1)
	if _, err := b2.Build(); !errors.Is(err, ErrRateMismatch) {
		t.Errorf("err = %v, want ErrRateMismatch", err)
	}
}

func TestBalanceHoldsOnEveryEdge(t *testing.T) {
	// Invariant: reps[from]*out == reps[to]*in for every edge.
	b := NewBuilder("bal")
	src := b.AddNode("src", 0)
	a := b.AddNode("a", 1)
	c := b.AddNode("c", 1)
	d := b.AddNode("d", 1)
	sink := b.AddNode("sink", 0)
	b.Connect(src, a, 2, 1)
	b.Connect(a, c, 3, 2)
	b.Connect(a, d, 1, 1)
	b.Connect(c, sink, 2, 3)
	b.Connect(d, sink, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(EdgeID(i))
		if g.Repetitions(e.From)*e.Out != g.Repetitions(e.To)*e.In {
			t.Errorf("balance violated on edge %d: %d*%d != %d*%d",
				i, g.Repetitions(e.From), e.Out, g.Repetitions(e.To), e.In)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid graph")
		}
	}()
	NewBuilder("p").MustBuild()
}

func TestBuilderNodeByName(t *testing.T) {
	b := NewBuilder("n")
	id := b.AddNode("alpha", 1)
	if got, ok := b.NodeByName("alpha"); !ok || got != id {
		t.Error("builder NodeByName failed")
	}
	if _, ok := b.NodeByName("beta"); ok {
		t.Error("builder NodeByName found missing node")
	}
}
