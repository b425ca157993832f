package exec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/randgraph"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/workloads"
)

// blockRun is one recorded access run: the blocks base, …, base+n-1.
type blockRun struct{ base, n int64 }

// runTap is the recording tap: it keeps the runs the machine issued since
// the last firing.
type runTap struct{ runs []blockRun }

func (r *runTap) RecordRun(base, n int64) { r.runs = append(r.runs, blockRun{base, n}) }

// costModel is the paper's cost model of a firing, written from the graph,
// the plan's capacities and the regions the machine laid out, and nothing
// else of the machine: a firing of v touches v's whole state once, then
// pops In items from each in-edge, then pushes Out items onto each
// out-edge, in the graph's edge order. Item j of a channel's stream lives
// in ring slot j mod its capacity, so the k-th firing of v pops from slot
// k·In and pushes at slot k·Out; the model counts firings itself and never
// reads a FIFO's head.
type costModel struct {
	g           *sdf.Graph
	block       int64
	state, bufs []cachesim.Region
	caps        []int64
	fired       []int64
	runs        []blockRun
	words       int64
}

// touch appends the block run covering the words [addr, addr+size).
func (c *costModel) touch(addr, size int64) {
	if size <= 0 {
		return
	}
	first := addr / c.block
	c.runs = append(c.runs, blockRun{first, (addr+size-1)/c.block - first + 1})
	c.words += size
}

// ring appends the runs of n items of channel e from stream position j.
func (c *costModel) ring(e sdf.EdgeID, j, n int64) {
	slot := j % c.caps[e]
	first := min(n, c.caps[e]-slot)
	c.touch(c.bufs[e].Base+slot, first)
	c.touch(c.bufs[e].Base, n-first)
}

// fire sets c.runs to the runs of v's next firing.
func (c *costModel) fire(v sdf.NodeID) {
	k := c.fired[v]
	c.fired[v]++
	c.runs = c.runs[:0]
	c.touch(c.state[v].Base, c.state[v].Size)
	for _, e := range c.g.InEdges(v) {
		in := c.g.Edge(e).In
		c.ring(e, k*in, in)
	}
	for _, e := range c.g.OutEdges(v) {
		out := c.g.Edge(e).Out
		c.ring(e, k*out, out)
	}
}

// periodWords is Σᵥ reps(v)·(state(v) + Σ in-rates + Σ out-rates): the
// words one period of any schedule touches.
func periodWords(g *sdf.Graph) int64 {
	var w int64
	for v := 0; v < g.NumNodes(); v++ {
		id := sdf.NodeID(v)
		per := g.Node(id).State
		for _, e := range g.InEdges(id) {
			per += g.Edge(e).In
		}
		for _, e := range g.OutEdges(id) {
			per += g.Edge(e).Out
		}
		w += g.Repetitions(id) * per
	}
	return w
}

// checkLayout holds the machine's regions to the model's layout rules:
// every region holds its object, no two overlap, state and every buffer
// of at least one block start on a block boundary, and no block holds
// words of one of those and of any other object. Sub-block buffers may
// share blocks with each other.
func checkLayout(g *sdf.Graph, block int64, state, bufs []cachesim.Region, caps []int64) error {
	type object struct {
		name      string
		r         cachesim.Region
		exclusive bool
	}
	var objs []object
	for v, r := range state {
		if r.Size != g.Node(sdf.NodeID(v)).State {
			return fmt.Errorf("state of %s: region %v for %d words", g.Node(sdf.NodeID(v)).Name, r, g.Node(sdf.NodeID(v)).State)
		}
		objs = append(objs, object{"state of " + g.Node(sdf.NodeID(v)).Name, r, true})
	}
	for e, r := range bufs {
		if r.Size < caps[e] {
			return fmt.Errorf("buffer of edge %d: region %v for %d items", e, r, caps[e])
		}
		objs = append(objs, object{fmt.Sprintf("buffer of edge %d", e), r, caps[e] >= block})
	}
	owner := map[int64]int{} // block -> the exclusive object holding it
	for i, o := range objs {
		if o.exclusive && o.r.Base%block != 0 {
			return fmt.Errorf("%s at %v is not aligned to %d-word blocks", o.name, o.r, block)
		}
		for j := range i {
			if p := objs[j].r; o.r.Size > 0 && p.Size > 0 && o.r.Base < p.End() && p.Base < o.r.End() {
				return fmt.Errorf("%s at %v overlaps %s at %v", o.name, o.r, objs[j].name, p)
			}
		}
		if !o.exclusive || o.r.Size == 0 {
			continue
		}
		for b := o.r.Base / block; b <= (o.r.End()-1)/block; b++ {
			owner[b] = i
		}
	}
	for i, o := range objs {
		for b := o.r.Base / block; o.r.Size > 0 && b <= (o.r.End()-1)/block; b++ {
			if j, ok := owner[b]; ok && j != i {
				return fmt.Errorf("block %d holds words of %s at %v and of %s at %v", b, objs[j].name, objs[j].r, o.name, o.r)
			}
		}
	}
	return nil
}

// costModelCase runs g under s for periods periods' worth of source
// firings on a recording machine of block size block and compares every
// firing's runs with the cost model's, checks the layout, and at every
// period boundary (each module fired k·reps times) checks the words
// touched against k·periodWords. It returns the boundaries checked.
func costModelCase(t *testing.T, g *sdf.Graph, s schedule.Scheduler, env schedule.Env, block, periods int64) int {
	t.Helper()
	name := fmt.Sprintf("%s/%s/B=%d", g.Name(), s.Name(), block)
	plan, err := s.Prepare(g, env)
	if err != nil {
		t.Fatalf("%s: prepare: %v", name, err)
	}
	tap := &runTap{}
	m, err := exec.NewMachine(g, exec.Config{Cache: cachesim.Config{Block: block}, Caps: plan.Caps, Recorder: tap})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	c := &costModel{g: g, block: block, caps: plan.Caps, fired: make([]int64, g.NumNodes())}
	for v := range g.NumNodes() {
		c.state = append(c.state, m.StateRegion(sdf.NodeID(v)))
	}
	for e := range g.NumEdges() {
		c.bufs = append(c.bufs, m.Buf(sdf.EdgeID(e)).Region())
	}
	if err := checkLayout(g, block, c.state, c.bufs, plan.Caps); err != nil {
		t.Fatalf("%s: layout: %v", name, err)
	}
	period, boundaries, firings := periodWords(g), 0, 0
	var failure error
	m.SetFireHook(func(v sdf.NodeID) {
		firings++
		c.fire(v)
		if failure == nil && !slices.Equal(tap.runs, c.runs) {
			failure = fmt.Errorf("firing %d (%s #%d) issued runs %v, the cost model %v",
				firings, g.Node(v).Name, c.fired[v], tap.runs, c.runs)
		}
		tap.runs = tap.runs[:0]
		k := c.fired[g.Source()] / g.Repetitions(g.Source())
		for u := range g.NumNodes() {
			if c.fired[u] != k*g.Repetitions(sdf.NodeID(u)) {
				return
			}
		}
		if failure == nil && c.words != k*period {
			failure = fmt.Errorf("after %d periods the firings touched %d words, want %d·%d", k, c.words, k, period)
		}
		boundaries++
	})
	if err := plan.Runner.Run(m, periods*g.Repetitions(g.Source())); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	if failure != nil {
		t.Fatalf("%s: %v", name, failure)
	}
	if block == 1 && m.Cache().Stats().Accesses != c.words {
		t.Fatalf("%s: the machine counted %d accesses at B=1, the model %d words", name, m.Cache().Stats().Accesses, c.words)
	}
	return boundaries
}

// TestMachineMatchesCostModel holds the execution machine's access stream,
// firing by firing, to the paper's cost model (costModel) at B = 1, where
// a word is a block and every word-offset fault shows, and at B = 16,
// where the layout's block alignment matters. Every baseline scheduler and
// the partitioned ones run seeded random pipelines and dags and the
// shipped workloads. The other exactness oracles compare two consumers of
// the machine's one stream; this one checks the stream itself.
func TestMachineMatchesCostModel(t *testing.T) {
	const m = 512
	seeds, periods := int64(12), int64(4)
	if testing.Short() {
		seeds, periods = 2, 2
	}
	var graphs []*sdf.Graph
	for seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		p, err := randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
			Nodes: 4 + rng.Intn(8), StateMin: 1, StateMax: 160, RateMax: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
			Layers: 1 + rng.Intn(3), Width: 1 + rng.Intn(3), StateMin: 1, StateMax: 160, ExtraEdges: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		sj, err := randgraph.RandomSplitJoin(rng, randgraph.SplitJoinSpec{
			Branches: 2 + rng.Intn(2), BranchDepth: 3, StateMin: 1, StateMax: 160, RateMax: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, p, d, sj)
	}
	suite, err := workloads.Suite(m)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		suite = suite[:2]
	}
	graphs = append(graphs, suite...)
	boundaries := 0
	for _, g := range graphs {
		for _, block := range []int64{1, 16} {
			env := schedule.Env{M: m, B: block}
			for _, s := range append(schedule.Baselines(), schedule.Partitioned(g, nil), schedule.PartitionedBatch{}) {
				boundaries += costModelCase(t, g, s, env, block, periods)
			}
		}
	}
	if boundaries == 0 {
		t.Fatal("no run reached a period boundary: the per-period word total was never checked")
	}
}
