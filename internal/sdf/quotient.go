package sdf

import (
	"fmt"
)

// Quotient returns the adjacency structure of the multigraph obtained by
// contracting each component of the assignment to a single vertex
// (Definition 2). assign maps each node to a component in [0, k);
// self-loops (edges internal to a component) are dropped, and parallel
// cross edges are deduplicated. The result is indexed by component:
// adj[c] lists the distinct components reachable by a single cross edge
// from c.
func (g *Graph) Quotient(assign []int, k int) ([][]int, error) {
	if len(assign) != len(g.nodes) {
		return nil, fmt.Errorf("sdf: assignment covers %d of %d nodes", len(assign), len(g.nodes))
	}
	if k <= 0 {
		return nil, fmt.Errorf("sdf: quotient needs k > 0, got %d", k)
	}
	for v, c := range assign {
		if c < 0 || c >= k {
			return nil, fmt.Errorf("sdf: node %d assigned to component %d, want [0,%d)", v, c, k)
		}
	}
	adj := make([][]int, k)
	seen := make(map[[2]int]bool)
	for _, e := range g.edges {
		a, b := assign[e.From], assign[e.To]
		if a == b {
			continue
		}
		key := [2]int{a, b}
		if !seen[key] {
			seen[key] = true
			adj[a] = append(adj[a], b)
		}
	}
	return adj, nil
}

// QuotientAcyclic reports whether the contracted multigraph of the
// assignment is a dag, i.e. whether the partition is well ordered
// (Definition 2).
func (g *Graph) QuotientAcyclic(assign []int, k int) (bool, error) {
	adj, err := g.Quotient(assign, k)
	if err != nil {
		return false, err
	}
	return dagCheck(adj), nil
}

// dagCheck reports whether adjacency adj is acyclic, via Kahn's algorithm.
func dagCheck(adj [][]int) bool {
	n := len(adj)
	indeg := make([]int, n)
	for _, outs := range adj {
		for _, w := range outs {
			indeg[w]++
		}
	}
	queue := make([]int, 0, n)
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, v)
		}
	}
	removed := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return removed == n
}

// ComponentTopoOrder returns a topological order of the components of a
// well-ordered assignment. It fails if the contracted graph has a cycle.
func (g *Graph) ComponentTopoOrder(assign []int, k int) ([]int, error) {
	adj, err := g.Quotient(assign, k)
	if err != nil {
		return nil, err
	}
	n := len(adj)
	indeg := make([]int, n)
	for _, outs := range adj {
		for _, w := range outs {
			indeg[w]++
		}
	}
	h := &idHeap{}
	for v, d := range indeg {
		if d == 0 {
			h.push(NodeID(v))
		}
	}
	order := make([]int, 0, n)
	for h.len() > 0 {
		v := int(h.pop())
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				h.push(NodeID(w))
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("%w: contracted graph has a cycle", ErrCyclic)
	}
	return order, nil
}
