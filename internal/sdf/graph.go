// Package sdf models synchronous dataflow (SDF) graphs: directed acyclic
// multigraphs whose nodes are computation modules with a fixed state size
// and whose edges are FIFO channels with fixed per-firing production and
// consumption rates, exactly the streaming model of the paper (§2).
//
// A Graph is immutable once built. Building validates the paper's standing
// assumptions — acyclicity, a unique source and sink, weak connectivity,
// and rate-matchedness (the balance equations admit a solution, which is
// necessary and sufficient for deadlock-free bounded-buffer execution) —
// and precomputes the repetition vector, per-node and per-edge gains, and a
// canonical topological order.
package sdf

import (
	"errors"
	"fmt"
	"math"

	"streamsched/internal/ratio"
)

// NodeID identifies a module within a Graph. IDs are dense, starting at 0,
// in the order nodes were added to the Builder.
type NodeID int

// EdgeID identifies a channel within a Graph. IDs are dense, starting at 0,
// in the order edges were added to the Builder.
type EdgeID int

// Node describes a module: its display name and state size in words. The
// state is the memory (code or data) that must be cache-resident for the
// module to fire.
type Node struct {
	Name  string
	State int64
}

// Edge describes a channel from module From to module To. Out is the number
// of items From produces onto the channel per firing; In is the number To
// consumes per firing.
type Edge struct {
	From NodeID
	To   NodeID
	Out  int64
	In   int64
}

// Errors reported by Build and graph analyses.
var (
	ErrEmpty        = errors.New("sdf: graph has no nodes")
	ErrCyclic       = errors.New("sdf: graph contains a cycle")
	ErrDisconnected = errors.New("sdf: graph is not weakly connected")
	ErrMultiSource  = errors.New("sdf: graph must have exactly one source")
	ErrMultiSink    = errors.New("sdf: graph must have exactly one sink")
	ErrRateMismatch = errors.New("sdf: graph is not rate matched")
	ErrBadRate      = errors.New("sdf: channel rates must be positive")
	ErrBadState     = errors.New("sdf: state sizes must be non-negative and sum within int64")
	ErrBadNode      = errors.New("sdf: node id out of range")
)

// ErrUnprocessable marks a failure the request causes, not the engine: no
// partition under the bound, or a window driving a count past int64. Its
// carriers wrap it with "%.0w", which leaves their message as it was.
var ErrUnprocessable = errors.New("sdf: the request admits no result")

// Graph is an immutable, validated SDF graph.
type Graph struct {
	name  string
	nodes []Node
	edges []Edge

	inEdges  [][]EdgeID
	outEdges [][]EdgeID

	source NodeID
	sink   NodeID

	reps      []int64     // repetition vector (smallest positive integers)
	gains     []ratio.Rat // gain(v) = reps[v]/reps[source]
	edgeGains []ratio.Rat // gain(e) = gain(from) * out(e)
	topo      []NodeID    // canonical topological order (Kahn, smallest ID first)

	totalState  int64
	homogeneous bool
	pipeline    bool
}

// Builder assembles a Graph.
type Builder struct {
	name  string
	nodes []Node
	edges []Edge
	err   error
}

// NewBuilder returns an empty Builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// AddNode adds a module with the given display name and state size in words
// and returns its ID. Duplicate names are permitted (names are for
// reporting); state must be non-negative.
func (b *Builder) AddNode(name string, state int64) NodeID {
	id := NodeID(len(b.nodes))
	if state < 0 && b.err == nil {
		b.err = fmt.Errorf("%w: node %q has state %d", ErrBadState, name, state)
	}
	b.nodes = append(b.nodes, Node{Name: name, State: state})
	return id
}

// Connect adds a channel from -> to on which `from` produces out items per
// firing and `to` consumes in items per firing, and returns its ID.
func (b *Builder) Connect(from, to NodeID, out, in int64) EdgeID {
	id := EdgeID(len(b.edges))
	if b.err == nil {
		if int(from) < 0 || int(from) >= len(b.nodes) || int(to) < 0 || int(to) >= len(b.nodes) {
			b.err = fmt.Errorf("%w: connect %d -> %d with %d nodes", ErrBadNode, from, to, len(b.nodes))
		} else if out <= 0 || in <= 0 {
			b.err = fmt.Errorf("%w: edge %s -> %s rates out=%d in=%d",
				ErrBadRate, b.nodes[from].Name, b.nodes[to].Name, out, in)
		}
	}
	b.edges = append(b.edges, Edge{From: from, To: to, Out: out, In: in})
	return id
}

// Chain connects a sequence of nodes with unit-rate channels, a convenience
// for homogeneous pipeline construction.
func (b *Builder) Chain(ids ...NodeID) {
	for i := 0; i+1 < len(ids); i++ {
		b.Connect(ids[i], ids[i+1], 1, 1)
	}
}

// Build validates the graph and returns it. After Build the Builder can
// continue to be used; Build takes copies.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.nodes) == 0 {
		return nil, ErrEmpty
	}
	g := &Graph{
		name:  b.name,
		nodes: append([]Node(nil), b.nodes...),
		edges: append([]Edge(nil), b.edges...),
	}
	n := len(g.nodes)
	g.inEdges = make([][]EdgeID, n)
	g.outEdges = make([][]EdgeID, n)
	for i, e := range g.edges {
		g.outEdges[e.From] = append(g.outEdges[e.From], EdgeID(i))
		g.inEdges[e.To] = append(g.inEdges[e.To], EdgeID(i))
	}
	if err := g.findEndpoints(); err != nil {
		return nil, err
	}
	if err := g.checkConnected(); err != nil {
		return nil, err
	}
	topo, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	g.topo = topo
	if err := g.solveRates(); err != nil {
		return nil, err
	}
	if err := g.computeShape(); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *Graph) findEndpoints() error {
	sources, sinks := []NodeID{}, []NodeID{}
	for v := range g.nodes {
		if len(g.inEdges[v]) == 0 {
			sources = append(sources, NodeID(v))
		}
		if len(g.outEdges[v]) == 0 {
			sinks = append(sinks, NodeID(v))
		}
	}
	if len(sources) != 1 {
		return fmt.Errorf("%w: found %d (%s)", ErrMultiSource, len(sources), g.nodeNames(sources))
	}
	if len(sinks) != 1 {
		return fmt.Errorf("%w: found %d (%s)", ErrMultiSink, len(sinks), g.nodeNames(sinks))
	}
	g.source, g.sink = sources[0], sinks[0]
	return nil
}

func (g *Graph) nodeNames(ids []NodeID) string {
	s := ""
	for i, id := range ids {
		if i > 0 {
			s += ", "
		}
		s += g.nodes[id].Name
		if i == 4 && len(ids) > 5 {
			return s + ", ..."
		}
	}
	return s
}

func (g *Graph) checkConnected() error {
	n := len(g.nodes)
	if n == 1 {
		return nil
	}
	seen := make([]bool, n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.outEdges[v] {
			if w := g.edges[e].To; !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
		for _, e := range g.inEdges[v] {
			if w := g.edges[e].From; !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	if count != n {
		return fmt.Errorf("%w: reached %d of %d nodes", ErrDisconnected, count, n)
	}
	return nil
}

// topoOrder returns a Kahn topological order breaking ties by smallest
// NodeID, or ErrCyclic.
func (g *Graph) topoOrder() ([]NodeID, error) {
	n := len(g.nodes)
	indeg := make([]int, n)
	for _, e := range g.edges {
		indeg[e.To]++
	}
	// Min-ID selection via a simple ordered scan: n is small enough that a
	// heap is unnecessary, but we use one anyway to keep O(E log V).
	h := &idHeap{}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			h.push(NodeID(v))
		}
	}
	order := make([]NodeID, 0, n)
	for h.len() > 0 {
		v := h.pop()
		order = append(order, v)
		for _, e := range g.outEdges[v] {
			w := g.edges[e].To
			indeg[w]--
			if indeg[w] == 0 {
				h.push(w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("%w: topological order covers %d of %d nodes", ErrCyclic, len(order), n)
	}
	return order, nil
}

// solveRates computes the repetition vector by propagating balance
// equations q(v)·in(u,v) = q(u)·out(u,v) from an arbitrary root, verifying
// consistency on every edge (the paper's rate-matched property), and
// scaling to the smallest positive integer vector.
func (g *Graph) solveRates() error {
	n := len(g.nodes)
	q := make([]ratio.Rat, n)
	set := make([]bool, n)
	q[0] = ratio.One()
	set[0] = true
	stack := []NodeID{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		relax := func(w NodeID, val ratio.Rat) error {
			if !set[w] {
				q[w] = val
				set[w] = true
				stack = append(stack, w)
				return nil
			}
			if q[w].Cmp(val) != 0 {
				return fmt.Errorf("%w: node %s requires firing rate %v and %v",
					ErrRateMismatch, g.nodes[w].Name, q[w], val)
			}
			return nil
		}
		for _, eid := range g.outEdges[v] {
			e := g.edges[eid]
			// q[to] = q[from] * out / in
			r, err := q[v].Mul(ratio.MustNew(e.Out, e.In))
			if err != nil {
				return fmt.Errorf("sdf: rate solve overflow on edge %d: %w", eid, err)
			}
			if err := relax(e.To, r); err != nil {
				return err
			}
		}
		for _, eid := range g.inEdges[v] {
			e := g.edges[eid]
			r, err := q[v].Mul(ratio.MustNew(e.In, e.Out))
			if err != nil {
				return fmt.Errorf("sdf: rate solve overflow on edge %d: %w", eid, err)
			}
			if err := relax(e.From, r); err != nil {
				return err
			}
		}
	}
	// Scale to the smallest integer vector: multiply by lcm of denominators,
	// then divide by the gcd of the numerators.
	l := int64(1)
	for _, r := range q {
		var err error
		l, err = ratio.LCM64(l, r.Den())
		if err != nil {
			return fmt.Errorf("sdf: repetition vector overflow: %w", err)
		}
	}
	reps := make([]int64, n)
	var gcd int64
	for v, r := range q {
		scaled, err := r.MulInt(l)
		if err != nil {
			return fmt.Errorf("sdf: repetition vector overflow: %w", err)
		}
		iv, ok := scaled.Int()
		if !ok || iv <= 0 {
			return fmt.Errorf("%w: non-positive repetition for node %s", ErrRateMismatch, g.nodes[v].Name)
		}
		reps[v] = iv
		gcd = ratio.GCD64(gcd, iv)
	}
	if gcd > 1 {
		for v := range reps {
			reps[v] /= gcd
		}
	}
	g.reps = reps
	// Gains relative to the source.
	g.gains = make([]ratio.Rat, n)
	for v := range g.nodes {
		r, err := ratio.New(reps[v], reps[g.source])
		if err != nil {
			return fmt.Errorf("sdf: gain overflow: %w", err)
		}
		g.gains[v] = r
	}
	g.edgeGains = make([]ratio.Rat, len(g.edges))
	for i, e := range g.edges {
		r, err := g.gains[e.From].MulInt(e.Out)
		if err != nil {
			return fmt.Errorf("sdf: edge gain overflow: %w", err)
		}
		g.edgeGains[i] = r
	}
	return nil
}

func (g *Graph) computeShape() error {
	g.homogeneous = true
	for _, e := range g.edges {
		if e.Out != 1 || e.In != 1 {
			g.homogeneous = false
			break
		}
	}
	g.pipeline = true
	for v := range g.nodes {
		if len(g.inEdges[v]) > 1 || len(g.outEdges[v]) > 1 {
			g.pipeline = false
			break
		}
	}
	for _, nd := range g.nodes {
		if nd.State > math.MaxInt64-g.totalState {
			return fmt.Errorf("%w: total state of graph %q overflows int64", ErrBadState, g.name)
		}
		g.totalState += nd.State
	}
	return nil
}

// --- accessors ---

// Name returns the graph's display name.
func (g *Graph) Name() string { return g.name }

// NumNodes returns the number of modules.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of channels.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node record for id.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Edge returns the edge record for id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// InEdges returns the channel IDs entering v. The slice must not be modified.
func (g *Graph) InEdges(v NodeID) []EdgeID { return g.inEdges[v] }

// OutEdges returns the channel IDs leaving v. The slice must not be modified.
func (g *Graph) OutEdges(v NodeID) []EdgeID { return g.outEdges[v] }

// Source returns the unique node with no incoming channels.
func (g *Graph) Source() NodeID { return g.source }

// Sink returns the unique node with no outgoing channels.
func (g *Graph) Sink() NodeID { return g.sink }

// Repetitions returns the repetition count of v in the minimal periodic
// schedule (the smallest positive integer solution of the balance
// equations).
func (g *Graph) Repetitions(v NodeID) int64 { return g.reps[v] }

// Gain returns gain(v), the number of times v fires per source firing
// (Definition 1).
func (g *Graph) Gain(v NodeID) ratio.Rat { return g.gains[v] }

// EdgeGain returns gain(e) = gain(from)·out(e), the number of items crossing
// e per source firing (Definition 1).
func (g *Graph) EdgeGain(e EdgeID) ratio.Rat { return g.edgeGains[e] }

// Topo returns the canonical topological order. The slice must not be
// modified.
func (g *Graph) Topo() []NodeID { return g.topo }

// TotalState returns the sum of all module state sizes.
func (g *Graph) TotalState() int64 { return g.totalState }

// IsHomogeneous reports whether every channel has unit rates (the paper's
// homogeneous dataflow class).
func (g *Graph) IsHomogeneous() bool { return g.homogeneous }

// IsPipeline reports whether the graph is a single directed chain (each
// module has at most one input and one output channel).
func (g *Graph) IsPipeline() bool { return g.pipeline }

// MinBuf returns the minimum buffer size of channel e that permits
// deadlock-free scheduling: in(e)+out(e) items. This is exact for pipelines
// and homogeneous dags and is the standing assumption class of §2.
func (g *Graph) MinBuf(e EdgeID) int64 {
	ed := g.edges[e]
	return ed.In + ed.Out
}

// NodeByName returns the first node with the given display name. The
// tests read hand-built and workload graphs through it: TestNodeByName
// checks it, and TestFilterbankRates, TestTheorem5CutsAtGainMinEdges and
// TestPartitionedBatchQuotas look modules up by the names their builders
// gave them.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	for v, nd := range g.nodes {
		if nd.Name == name {
			return NodeID(v), true
		}
	}
	return 0, false
}

// String summarises the graph.
func (g *Graph) String() string {
	kind := "dag"
	if g.pipeline {
		kind = "pipeline"
	}
	hom := "inhomogeneous"
	if g.homogeneous {
		hom = "homogeneous"
	}
	return fmt.Sprintf("%s: %s (%s), %d modules, %d channels, %d words total state",
		g.name, kind, hom, len(g.nodes), len(g.edges), g.totalState)
}

// --- small NodeID min-heap for deterministic Kahn ordering ---

type idHeap struct{ a []NodeID }

func (h *idHeap) len() int { return len(h.a) }

func (h *idHeap) push(v NodeID) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *idHeap) pop() NodeID {
	v := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return v
}
