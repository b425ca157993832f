// Package partition implements the paper's central object: partitions of a
// streaming dag into components, together with the quality measures that
// drive cache-efficient scheduling.
//
// A partition is well ordered when contracting each component yields a dag
// (Definition 2), c-bounded when every component's total module state is at
// most c·M (for the machine's cache size M), and its bandwidth is the sum
// of the gains of its cross edges (Definition 3) — the number of items that
// cross component boundaries per source firing. The paper reduces
// cache-efficient scheduling to finding a low-bandwidth well-ordered
// c-bounded partition; this package supplies the partitioners:
//
//   - PipelineTheorem5: the constructive partition of Theorem 5 (greedy 2M
//     segments cut at gain-minimizing edges), polynomial time, O(1)-optimal.
//   - PipelineOptimalDP / IntervalDP: minimum-bandwidth c-bounded interval
//     partition of a pipeline (the dynamic program mentioned after
//     Theorem 5), generalised to any linear extension of a dag.
//   - BestInterval: IntervalDP over several linear extensions.
//   - Agglomerative: heavy-gain-edge merging heuristic for dags (the role
//     METIS-style heuristics play in §7).
//   - LocalSearch: node-move refinement preserving validity.
//   - Exact: exact minimum-bandwidth well-ordered c-bounded partition via
//     dynamic programming over the order-ideal lattice (the role of the
//     exact IP solver in §7; exponential, for small graphs).
package partition

import (
	"errors"
	"fmt"

	"streamsched/internal/ratio"
	"streamsched/internal/sdf"
)

// Errors reported by validators and partitioners.
var (
	ErrNotWellOrdered = errors.New("partition: contracted graph is cyclic")
	ErrOverBound      = errors.New("partition: component state exceeds bound")
	ErrNotPipeline    = errors.New("partition: graph is not a pipeline")
	ErrInfeasible     = errors.New("partition: no feasible partition under bound")
	ErrTooLarge       = errors.New("partition: graph too large for exact search")
)

// Partition assigns every node of a graph to a component. Components are
// numbered 0..K-1 in topological order of the contracted graph.
type Partition struct {
	// Assign maps NodeID -> component index.
	Assign []int
	// K is the number of components.
	K int
}

// New canonicalizes an assignment into a Partition: components are
// renumbered in topological order of the contracted graph. It fails if the
// assignment is not well ordered or malformed.
func New(g *sdf.Graph, assign []int) (*Partition, error) {
	k := 0
	for _, c := range assign {
		if c+1 > k {
			k = c + 1
		}
	}
	// Compact component numbering (some indices may be unused).
	used := make([]int, k)
	for i := range used {
		used[i] = -1
	}
	next := 0
	compact := make([]int, len(assign))
	for v, c := range assign {
		if c < 0 {
			return nil, fmt.Errorf("partition: node %d has negative component", v)
		}
		if used[c] == -1 {
			used[c] = next
			next++
		}
		compact[v] = used[c]
	}
	order, err := g.ComponentTopoOrder(compact, next)
	if err != nil {
		if errors.Is(err, sdf.ErrCyclic) {
			return nil, fmt.Errorf("%w: %v", ErrNotWellOrdered, err)
		}
		return nil, err
	}
	rank := make([]int, next)
	for i, c := range order {
		rank[c] = i
	}
	final := make([]int, len(assign))
	for v, c := range compact {
		final[v] = rank[c]
	}
	return &Partition{Assign: final, K: next}, nil
}

// Singleton returns the finest partition: every node its own component.
func Singleton(g *sdf.Graph) *Partition {
	assign := make([]int, g.NumNodes())
	for i, v := range g.Topo() {
		assign[v] = i
	}
	return &Partition{Assign: assign, K: g.NumNodes()}
}

// Whole returns the coarsest partition: one component holding every node.
func Whole(g *sdf.Graph) *Partition {
	return &Partition{Assign: make([]int, g.NumNodes()), K: 1}
}

// Members returns the node sets of each component.
func (p *Partition) Members(g *sdf.Graph) [][]sdf.NodeID {
	byComp := make([][]sdf.NodeID, p.K)
	for _, v := range g.Topo() {
		c := p.Assign[v]
		byComp[c] = append(byComp[c], v)
	}
	return byComp
}

// CrossEdges returns the IDs of all edges whose endpoints lie in different
// components.
func (p *Partition) CrossEdges(g *sdf.Graph) []sdf.EdgeID {
	var out []sdf.EdgeID
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(sdf.EdgeID(e))
		if p.Assign[ed.From] != p.Assign[ed.To] {
			out = append(out, sdf.EdgeID(e))
		}
	}
	return out
}

// Bandwidth returns the partition's bandwidth (Definition 3): the sum of
// gains of its cross edges.
func (p *Partition) Bandwidth(g *sdf.Graph) (ratio.Rat, error) {
	acc := ratio.Zero()
	var err error
	for _, e := range p.CrossEdges(g) {
		acc, err = acc.Add(g.EdgeGain(e))
		if err != nil {
			return ratio.Rat{}, err
		}
	}
	return acc, nil
}

// BandwidthScaled returns bandwidth(P)·reps(source): an exact integer
// proportional to the bandwidth, convenient for comparisons and dynamic
// programs. Dividing by g.Repetitions(g.Source()) recovers the bandwidth.
func (p *Partition) BandwidthScaled(g *sdf.Graph) int64 {
	var acc int64
	for _, e := range p.CrossEdges(g) {
		acc += EdgeGainScaled(g, e)
	}
	return acc
}

// EdgeGainScaled returns gain(e)·reps(source) = reps(from)·out(e), an exact
// integer proportional to the edge gain.
func EdgeGainScaled(g *sdf.Graph, e sdf.EdgeID) int64 {
	ed := g.Edge(e)
	return g.Repetitions(ed.From) * ed.Out
}

// ComponentState returns the total module state of component c.
func (p *Partition) ComponentState(g *sdf.Graph, c int) int64 {
	var s int64
	for v := 0; v < g.NumNodes(); v++ {
		if p.Assign[v] == c {
			s += g.Node(sdf.NodeID(v)).State
		}
	}
	return s
}

// MaxComponentState returns the largest component state.
func (p *Partition) MaxComponentState(g *sdf.Graph) int64 {
	sums := make([]int64, p.K)
	for v := 0; v < g.NumNodes(); v++ {
		sums[p.Assign[v]] += g.Node(sdf.NodeID(v)).State
	}
	var max int64
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	return max
}

// ComponentDegree returns, for each component, the number of cross edges
// incident on it (in plus out). The paper's upper bound for dags (Lemma 8)
// requires this to be O(M/B) for every component.
func (p *Partition) ComponentDegree(g *sdf.Graph) []int {
	deg := make([]int, p.K)
	for _, e := range p.CrossEdges(g) {
		ed := g.Edge(e)
		deg[p.Assign[ed.From]]++
		deg[p.Assign[ed.To]]++
	}
	return deg
}

// Validate checks that the partition is well ordered and bound-bounded:
// every component's total state is at most bound words.
func (p *Partition) Validate(g *sdf.Graph, bound int64) error {
	if len(p.Assign) != g.NumNodes() {
		return fmt.Errorf("partition: assignment covers %d of %d nodes", len(p.Assign), g.NumNodes())
	}
	ok, err := g.QuotientAcyclic(p.Assign, p.K)
	if err != nil {
		return err
	}
	if !ok {
		return ErrNotWellOrdered
	}
	sums := make([]int64, p.K)
	for v := 0; v < g.NumNodes(); v++ {
		sums[p.Assign[v]] += g.Node(sdf.NodeID(v)).State
	}
	for c, s := range sums {
		if s > bound {
			return fmt.Errorf("%w: component %d has %d words, bound %d", ErrOverBound, c, s, bound)
		}
	}
	return nil
}

// Clone returns a deep copy of p.
func (p *Partition) Clone() *Partition {
	return &Partition{Assign: append([]int(nil), p.Assign...), K: p.K}
}

// String summarises the partition.
func (p *Partition) String() string {
	return fmt.Sprintf("partition(%d components over %d nodes)", p.K, len(p.Assign))
}
