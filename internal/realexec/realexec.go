// Package realexec executes streaming graphs against real memory rather
// than the cache simulator: module state is a live []int64 scanned on
// every firing, channels are real ring buffers. Wall-clock time per item
// then reflects the machine's actual cache hierarchy, providing hardware
// corroboration (benchmark E14) for the simulator results without
// requiring core pinning — the work is single-goroutine, so the Go
// runtime's thread migration does not disturb the relative comparison.
package realexec

import (
	"fmt"

	"streamsched/internal/partition"
	"streamsched/internal/sdf"
)

// Machine executes an SDF graph against real memory. Not safe for
// concurrent use.
type Machine struct {
	g      *sdf.Graph
	states [][]int64
	bufs   []ring
	fired  []int64
	// sum accumulates state scans so the compiler cannot elide them.
	sum int64
}

type ring struct {
	data  []int64
	head  int
	count int
}

func (r *ring) push(v int64) {
	r.data[(r.head+r.count)%len(r.data)] = v
	r.count++
}

func (r *ring) pop() int64 {
	v := r.data[r.head]
	r.head = (r.head + 1) % len(r.data)
	r.count--
	return v
}

// New builds a machine with the given per-channel capacities (in items).
func New(g *sdf.Graph, caps []int64) (*Machine, error) {
	if len(caps) != g.NumEdges() {
		return nil, fmt.Errorf("realexec: %d capacities for %d edges", len(caps), g.NumEdges())
	}
	m := &Machine{
		g:      g,
		states: make([][]int64, g.NumNodes()),
		bufs:   make([]ring, g.NumEdges()),
		fired:  make([]int64, g.NumNodes()),
	}
	for v := 0; v < g.NumNodes(); v++ {
		st := make([]int64, g.Node(sdf.NodeID(v)).State)
		for i := range st {
			st[i] = int64(i + v)
		}
		m.states[v] = st
	}
	for e := 0; e < g.NumEdges(); e++ {
		if caps[e] < g.MinBuf(sdf.EdgeID(e)) {
			return nil, fmt.Errorf("realexec: edge %d capacity %d below minBuf", e, caps[e])
		}
		m.bufs[e] = ring{data: make([]int64, caps[e])}
	}
	return m, nil
}

// CanFire reports whether v's inputs and output space are available.
func (m *Machine) CanFire(v sdf.NodeID) bool {
	for _, e := range m.g.InEdges(v) {
		if int64(m.bufs[e].count) < m.g.Edge(e).In {
			return false
		}
	}
	for _, e := range m.g.OutEdges(v) {
		if int64(len(m.bufs[e].data)-m.bufs[e].count) < m.g.Edge(e).Out {
			return false
		}
	}
	return true
}

// Fire executes one firing of v: scans (and updates) the module's state,
// consumes inputs, and produces outputs. The caller must have checked
// CanFire.
func (m *Machine) Fire(v sdf.NodeID) {
	st := m.states[v]
	var acc int64
	for i := range st {
		acc += st[i]
	}
	if len(st) > 0 {
		st[int(uint64(acc)%uint64(len(st)))]++
	}
	for _, e := range m.g.InEdges(v) {
		in := m.g.Edge(e).In
		for j := int64(0); j < in; j++ {
			acc += m.bufs[e].pop()
		}
	}
	for _, e := range m.g.OutEdges(v) {
		out := m.g.Edge(e).Out
		for j := int64(0); j < out; j++ {
			m.bufs[e].push(acc + j)
		}
	}
	m.fired[v]++
	m.sum += acc
}

// SourceFirings returns the source's firing count.
func (m *Machine) SourceFirings() int64 { return m.fired[m.g.Source()] }

// Checksum returns the accumulated state-scan sum (defeats dead-code
// elimination in benchmarks).
func (m *Machine) Checksum() int64 { return m.sum }

// FlatCaps returns single-period buffer capacities for RunFlat.
func FlatCaps(g *sdf.Graph) []int64 {
	caps := make([]int64, g.NumEdges())
	for e := range caps {
		ed := g.Edge(sdf.EdgeID(e))
		c := g.Repetitions(ed.From) * ed.Out
		if mb := g.MinBuf(sdf.EdgeID(e)); c < mb {
			c = mb
		}
		caps[e] = c
	}
	return caps
}

// SegmentCaps returns pipeline-partition capacities: minBuf internally,
// 2M items on cross edges.
func SegmentCaps(g *sdf.Graph, p *partition.Partition, m int64) []int64 {
	caps := make([]int64, g.NumEdges())
	for e := range caps {
		caps[e] = g.MinBuf(sdf.EdgeID(e))
	}
	for _, e := range p.CrossEdges(g) {
		c := 2 * m
		if mb := 2 * g.MinBuf(e); c < mb {
			c = mb
		}
		caps[e] = c
	}
	return caps
}

// RunFlat executes whole periods of the single-appearance schedule until
// the source has fired at least target times.
func (m *Machine) RunFlat(target int64) {
	g := m.g
	for m.SourceFirings() < target {
		for _, v := range g.Topo() {
			reps := g.Repetitions(v)
			for i := int64(0); i < reps; i++ {
				m.Fire(v)
			}
		}
	}
}

// RunSegments executes a pipeline partition with the half-full rule until
// the source has fired at least target times.
func (m *Machine) RunSegments(p *partition.Partition, target int64) error {
	g := m.g
	members := p.Members(g)
	after := make([]sdf.EdgeID, p.K)
	for i := range after {
		after[i] = -1
	}
	for _, e := range p.CrossEdges(g) {
		from := p.Assign[g.Edge(e).From]
		if p.Assign[g.Edge(e).To] != from+1 || after[from] != -1 {
			return fmt.Errorf("realexec: partition is not a pipeline segmentation")
		}
		after[from] = e
	}
	src := g.Source()
	for m.SourceFirings() < target {
		// Pick the segment preceding the first at-most-half-full cross edge.
		seg := p.K - 1
		for i := 0; i < p.K; i++ {
			e := after[i]
			if e < 0 {
				seg = i
				break
			}
			if 2*m.bufs[e].count <= len(m.bufs[e].data) {
				seg = i
				break
			}
		}
		progress := false
		for {
			fired := false
			for _, v := range members[seg] {
				for m.CanFire(v) {
					if v == src && m.SourceFirings() >= target {
						break
					}
					m.Fire(v)
					fired = true
				}
			}
			if !fired {
				break
			}
			progress = true
		}
		if !progress && m.SourceFirings() < target {
			return fmt.Errorf("realexec: stalled at %d source firings", m.SourceFirings())
		}
	}
	return nil
}
