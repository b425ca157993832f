package partition

import (
	"math/rand"
	"slices"

	"streamsched/internal/sdf"
)

// LocalSearch refines a valid partition by hill climbing on single-node
// moves: repeatedly try moving a boundary node into a neighbouring
// component, keeping the move when it lowers the bandwidth while preserving
// well-orderedness and the state bound. The search is deterministic for a
// given seed and stops after maxRounds full passes without improvement.
func LocalSearch(g *sdf.Graph, p *Partition, bound int64, seed int64, maxRounds int) (*Partition, error) {
	if err := p.Validate(g, bound); err != nil {
		return nil, err
	}
	cur := p.Clone()
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	curBW := cur.BandwidthScaled(g)
	stateOf := make([]int64, cur.K)
	for v := 0; v < n; v++ {
		stateOf[cur.Assign[v]] += g.Node(sdf.NodeID(v)).State
	}
	if maxRounds <= 0 {
		maxRounds = 2 * n
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	var cands []int
	for round := 0; round < maxRounds; round++ {
		improved := false
		rng.Shuffle(n, func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		for _, vi := range nodes {
			v := sdf.NodeID(vi)
			from := cur.Assign[vi]
			// Candidate destinations: components of neighbours, tried in
			// ascending order — the first improving move wins, so the order
			// is part of the result.
			cands = cands[:0]
			for _, e := range g.InEdges(v) {
				cands = append(cands, cur.Assign[g.Edge(e).From])
			}
			for _, e := range g.OutEdges(v) {
				cands = append(cands, cur.Assign[g.Edge(e).To])
			}
			slices.Sort(cands)
			home := from
			for i, to := range cands {
				if to == home || i > 0 && to == cands[i-1] {
					continue
				}
				if stateOf[to]+g.Node(v).State > bound {
					continue
				}
				delta := moveDelta(g, cur, vi, to)
				if delta >= 0 {
					continue
				}
				cur.Assign[vi] = to
				ok, err := g.QuotientAcyclic(cur.Assign, cur.K)
				if err != nil {
					return nil, err
				}
				if !ok {
					cur.Assign[vi] = from
					continue
				}
				stateOf[from] -= g.Node(v).State
				stateOf[to] += g.Node(v).State
				curBW += delta
				improved = true
				from = to
			}
		}
		if !improved {
			break
		}
	}
	// Renumber (moves may have emptied components or disturbed topo order).
	out, err := New(g, cur.Assign)
	if err != nil {
		return nil, err
	}
	_ = curBW
	return out, nil
}

// moveDelta returns the change in scaled bandwidth if node v moves to
// component `to`.
func moveDelta(g *sdf.Graph, p *Partition, v int, to int) int64 {
	from := p.Assign[v]
	var delta int64
	for _, e := range g.InEdges(sdf.NodeID(v)) {
		c := p.Assign[g.Edge(e).From]
		gain := EdgeGainScaled(g, e)
		if c == from {
			delta += gain // was internal, becomes cross
		} else if c == to {
			delta -= gain // was cross, becomes internal
		}
	}
	for _, e := range g.OutEdges(sdf.NodeID(v)) {
		c := p.Assign[g.Edge(e).To]
		gain := EdgeGainScaled(g, e)
		if c == from {
			delta += gain
		} else if c == to {
			delta -= gain
		}
	}
	return delta
}

// Agglomerative builds a partition bottom-up, in the spirit of multilevel
// graph partitioners (§7): starting from singletons, repeatedly merge the
// pair of components connected by the largest total cross gain, provided
// the merged state fits in bound and the contracted graph stays acyclic.
// Every merge strictly decreases bandwidth, so the procedure terminates at
// a local optimum of the merge lattice.
func Agglomerative(g *sdf.Graph, bound int64) (*Partition, error) {
	p := Singleton(g)
	stateOf := make([]int64, p.K)
	for v := 0; v < g.NumNodes(); v++ {
		stateOf[p.Assign[v]] += g.Node(sdf.NodeID(v)).State
	}
	for {
		// Gather candidate merges: pairs of components joined by >= 1 edge.
		gainOf := map[compPair]int64{}
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(sdf.EdgeID(e))
			a, b := p.Assign[ed.From], p.Assign[ed.To]
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			gainOf[compPair{a, b}] += EdgeGainScaled(g, sdf.EdgeID(e))
		}
		if len(gainOf) == 0 {
			break
		}
		// Try candidates in descending gain order (ties by smallest ids for
		// determinism).
		cands := make([]compPair, 0, len(gainOf))
		for pr := range gainOf {
			cands = append(cands, pr)
		}
		sortPairs(cands, gainOf)
		merged := false
		for _, pr := range cands {
			if stateOf[pr.a]+stateOf[pr.b] > bound {
				continue
			}
			// Tentatively merge b into a.
			trial := make([]int, len(p.Assign))
			for v, c := range p.Assign {
				switch {
				case c == pr.b:
					trial[v] = pr.a
				default:
					trial[v] = c
				}
			}
			ok, err := g.QuotientAcyclic(trial, p.K)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			stateOf[pr.a] += stateOf[pr.b]
			stateOf[pr.b] = 0
			p.Assign = trial
			merged = true
			break
		}
		if !merged {
			break
		}
	}
	return New(g, p.Assign)
}

// compPair identifies an unordered pair of components (a < b) considered
// for merging.
type compPair struct{ a, b int }

// sortPairs orders candidate merges by descending gain, then ascending
// (a, b) for determinism. Insertion sort: candidate lists are small.
func sortPairs(cands []compPair, gainOf map[compPair]int64) {
	less := func(x, y compPair) bool {
		gx, gy := gainOf[x], gainOf[y]
		if gx != gy {
			return gx > gy
		}
		if x.a != y.a {
			return x.a < y.a
		}
		return x.b < y.b
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && less(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

// Auto picks a partitioner appropriate for the graph: the optimal DP for
// pipelines, otherwise the best of interval DP over linear extensions,
// agglomerative merging, and local-search refinement of both.
func Auto(g *sdf.Graph, bound int64) (*Partition, error) {
	if g.IsPipeline() {
		return PipelineOptimalDP(g, bound)
	}
	var best *Partition
	consider := func(p *Partition, err error) error {
		if err != nil {
			return err
		}
		refined, err := LocalSearch(g, p, bound, 1, 0)
		if err != nil {
			return err
		}
		if best == nil || refined.BandwidthScaled(g) < best.BandwidthScaled(g) {
			best = refined
		}
		return nil
	}
	if err := consider(BestInterval(g, bound)); err != nil {
		return nil, err
	}
	if err := consider(Agglomerative(g, bound)); err != nil {
		return nil, err
	}
	return best, nil
}
