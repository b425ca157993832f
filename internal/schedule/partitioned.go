package schedule

import (
	"fmt"

	"streamsched/internal/exec"
	"streamsched/internal/partition"
	"streamsched/internal/sdf"
)

// resolvePartition returns the scheduler's partition, computing a default
// (partition.Auto with bound M) when none was supplied.
func resolvePartition(p *partition.Partition, g *sdf.Graph, env Env) (*partition.Partition, error) {
	if env.M <= 0 {
		return nil, fmt.Errorf("%w: partitioned schedulers need M > 0", ErrUnsupported)
	}
	if p == nil {
		auto, err := partition.Auto(g, env.M)
		if err != nil {
			return nil, err
		}
		return auto, nil
	}
	if err := p.Validate(g, 8*env.M); err != nil {
		return nil, fmt.Errorf("schedule: supplied partition invalid: %w", err)
	}
	return p, nil
}

// PartitionedPipeline is the paper's pipeline schedule (§3 "Scheduling
// pipelines", §4): cut the pipeline into segments that fit in cache, give
// every cross edge a Θ(M) buffer, and dynamically execute the segment
// preceding the first at-most-half-full cross edge until its input empties
// or its output fills. Each segment load moves Ω(M) items, amortizing the
// O(M/B) load cost to O(bandwidth/B) misses per item (Lemma 4, Theorem 5).
type PartitionedPipeline struct {
	// P is the segment partition; when nil the minimum-bandwidth
	// M-bounded segmentation (PipelineOptimalDP) is computed.
	P *partition.Partition
}

// Name implements Scheduler.
func (PartitionedPipeline) Name() string { return "partitioned-pipeline" }

// Prepare implements Scheduler.
func (s PartitionedPipeline) Prepare(g *sdf.Graph, env Env) (*Plan, error) {
	if !g.IsPipeline() {
		return nil, fmt.Errorf("%w: %s is not a pipeline", ErrUnsupported, g.Name())
	}
	p := s.P
	var err error
	if p == nil {
		if env.M <= 0 {
			return nil, fmt.Errorf("%w: partitioned schedulers need M > 0", ErrUnsupported)
		}
		p, err = partition.PipelineOptimalDP(g, env.M)
		if err != nil {
			return nil, err
		}
	} else if err = p.Validate(g, 8*env.M); err != nil {
		return nil, fmt.Errorf("schedule: supplied partition invalid: %w", err)
	}
	caps := minBufCaps(g)
	for _, e := range p.CrossEdges(g) {
		c := 2 * env.M
		if mb := 2 * g.MinBuf(e); c < mb {
			c = mb
		}
		caps[e] = c
	}
	r, err := newPipelineRunner(g, p)
	if err != nil {
		return nil, err
	}
	return &Plan{Caps: caps, Runner: r, CrossEdges: p.CrossEdges(g)}, nil
}

// Claims is a partitioned runner seen one component at a time: how many
// components there are, whether component c may run now, and running it
// toward target source firings. The runners' own Run loops are one
// processor making these claims; internal/parallel lets P processors make
// them, so the multiprocessor reuses each rule instead of restating it.
type Claims interface {
	Components() int
	Claimable(m *exec.Machine, c int) bool
	Execute(m *exec.Machine, c int, target int64) error
}

// pipelineRunner holds the static structure of a segmented pipeline: the
// members of each segment in chain order and the cross edge following each
// segment.
type pipelineRunner struct {
	p       *partition.Partition
	members [][]sdf.NodeID
	after   []sdf.EdgeID // after[i] = cross edge from segment i to i+1 (-1 for last)
}

func newPipelineRunner(g *sdf.Graph, p *partition.Partition) (*pipelineRunner, error) {
	r := &pipelineRunner{
		p:       p,
		members: p.Members(g),
		after:   make([]sdf.EdgeID, p.K),
	}
	for i := range r.after {
		r.after[i] = -1
	}
	for _, e := range p.CrossEdges(g) {
		from := p.Assign[g.Edge(e).From]
		if r.after[from] != -1 {
			return nil, fmt.Errorf("%w: segment %d has two outgoing cross edges", ErrUnsupported, from)
		}
		if p.Assign[g.Edge(e).To] != from+1 {
			return nil, fmt.Errorf("%w: cross edge skips a segment", ErrUnsupported)
		}
		r.after[from] = e
	}
	return r, nil
}

// Run implements Runner via the half-full rule.
func (r *pipelineRunner) Run(m *exec.Machine, target int64) error {
	for m.SourceFirings() < target {
		i := r.pickSegment(m)
		if i < 0 {
			return fmt.Errorf("%w: no schedulable segment at %d source firings",
				ErrDeadlock, m.SourceFirings())
		}
		if err := r.Execute(m, i, target); err != nil {
			return err
		}
	}
	return nil
}

// Components implements Claims.
func (r *pipelineRunner) Components() int { return r.p.K }

// Claimable implements Claims with the multiprocessor's half-full rule:
// segment c's input is more than half full (or external, for the first
// segment) and its output at most half full (or the sink). One processor
// needs only the output half, which is pickSegment.
func (r *pipelineRunner) Claimable(m *exec.Machine, c int) bool {
	if c > 0 && r.after[c-1] >= 0 {
		if buf := m.Buf(r.after[c-1]); 2*buf.Len() <= buf.Cap() {
			return false
		}
	}
	if e := r.after[c]; e >= 0 {
		if buf := m.Buf(e); 2*buf.Len() > buf.Cap() {
			return false
		}
	}
	return true
}

// pickSegment scans cross edges in order and returns the segment preceding
// the first at-most-half-full one (the sink's output buffer counts as
// always empty), per the continuity argument of §3.
func (r *pipelineRunner) pickSegment(m *exec.Machine) int {
	for i := 0; i < r.p.K; i++ {
		e := r.after[i]
		if e < 0 {
			return i // last segment: output always "empty"
		}
		buf := m.Buf(e)
		if 2*buf.Len() <= buf.Cap() {
			return i
		}
	}
	return -1
}

// Execute implements Claims: it runs segment i until its input cross
// buffer empties, its output cross buffer fills, or (for the source
// segment) the target is reached: i.e. until no member module can fire.
func (r *pipelineRunner) Execute(m *exec.Machine, i int, target int64) error {
	g := m.Graph()
	src := g.Source()
	for {
		progress := false
		for _, v := range r.members[i] {
			for m.CanFire(v) {
				if v == src && m.SourceFirings() >= target {
					break
				}
				if err := m.Fire(v); err != nil {
					return err
				}
				progress = true
			}
		}
		if !progress {
			return nil
		}
	}
}

// PartitionedHomogeneous is the paper's homogeneous-dag schedule (§3
// "Scheduling homogeneous graphs"): with T = M, give every cross edge a
// T-item buffer and repeatedly pick any component whose incoming cross
// edges all hold T items (none for the source component) and whose
// outgoing cross edges are all empty; then fire each member module once in
// topological order, T times over. Each load moves T = M items per cross
// edge, matching Lemma 8's bound for degree-limited partitions.
type PartitionedHomogeneous struct {
	// P is the partition; when nil partition.Auto(g, M) is used.
	P *partition.Partition
}

// Name implements Scheduler.
func (PartitionedHomogeneous) Name() string { return "partitioned-homog" }

// Prepare implements Scheduler.
func (s PartitionedHomogeneous) Prepare(g *sdf.Graph, env Env) (*Plan, error) {
	if !g.IsHomogeneous() {
		return nil, fmt.Errorf("%w: %s is not homogeneous", ErrUnsupported, g.Name())
	}
	p, err := resolvePartition(s.P, g, env)
	if err != nil {
		return nil, err
	}
	t := env.M
	caps := minBufCaps(g)
	for _, e := range p.CrossEdges(g) {
		if c := g.MinBuf(e); t < c {
			return nil, fmt.Errorf("%w: M=%d below minBuf of edge %d", ErrUnsupported, t, e)
		}
		caps[e] = t
	}
	return &Plan{
		Caps: caps,
		Runner: &homogRunner{p: p, t: t, members: p.Members(g),
			inCross: crossBySide(g, p, true), outCross: crossBySide(g, p, false)},
		CrossEdges: p.CrossEdges(g),
		Step:       t, // the source component fires in batches of T
	}, nil
}

// crossBySide returns, per component, its incoming (in=true) or outgoing
// cross edges.
func crossBySide(g *sdf.Graph, p *partition.Partition, in bool) [][]sdf.EdgeID {
	out := make([][]sdf.EdgeID, p.K)
	for _, e := range p.CrossEdges(g) {
		if in {
			out[p.Assign[g.Edge(e).To]] = append(out[p.Assign[g.Edge(e).To]], e)
		} else {
			out[p.Assign[g.Edge(e).From]] = append(out[p.Assign[g.Edge(e).From]], e)
		}
	}
	return out
}

type homogRunner struct {
	p        *partition.Partition
	t        int64
	members  [][]sdf.NodeID
	inCross  [][]sdf.EdgeID
	outCross [][]sdf.EdgeID
}

// Run implements Runner: the first claimable component runs, every time.
func (r *homogRunner) Run(m *exec.Machine, target int64) error {
	for m.SourceFirings() < target {
		c := 0
		for c < r.p.K && !r.Claimable(m, c) {
			c++
		}
		if c == r.p.K {
			return fmt.Errorf("%w: no schedulable component at %d source firings",
				ErrDeadlock, m.SourceFirings())
		}
		if err := r.Execute(m, c, target); err != nil {
			return err
		}
	}
	return nil
}

// Components implements Claims.
func (r *homogRunner) Components() int { return r.p.K }

// Claimable implements Claims: component c has T items on every incoming
// cross edge and its outgoing cross edges are empty.
func (r *homogRunner) Claimable(m *exec.Machine, c int) bool {
	for _, e := range r.inCross[c] {
		if m.Buf(e).Len() < r.t {
			return false
		}
	}
	for _, e := range r.outCross[c] {
		if m.Buf(e).Len() != 0 {
			return false
		}
	}
	return true
}

// Execute implements Claims: it fires each member of component c once in
// topological order, T times over. The batch ignores target.
func (r *homogRunner) Execute(m *exec.Machine, c int, _ int64) error {
	for round := int64(0); round < r.t; round++ {
		for _, v := range r.members[c] {
			if err := m.Fire(v); err != nil {
				return fmt.Errorf("schedule: component %d round %d: %w", c, round, err)
			}
		}
	}
	return nil
}

// PartitionedBatch is the paper's general inhomogeneous-dag schedule (§3
// "Scheduling inhomogeneous graphs"): pick T with T·gain(e) integral,
// divisible by both rates of every edge, and at least M — T = reps(source)
// rounded up to a multiple covering M works, because T·gain(u,v) =
// (T/reps(s))·reps(u)·out(u,v). Give each cross edge a T·gain(e)-item
// buffer, execute components once each per batch of T source firings in
// topological order, and inside a component fire modules (bounded by their
// per-batch quota) until the batch's progeny have fully drained through.
type PartitionedBatch struct {
	// P is the partition; when nil partition.Auto(g, M) is used.
	P *partition.Partition
	// MinT, when positive, overrides the batch-size target (default M).
	// The schedule stays correct for any MinT >= 1, but Lemma 8's
	// amortization needs T = Ω(M): smaller T trades cross-edge buffer
	// memory (which scales with T·gain) for extra component reloads —
	// the buffer-size/miss tradeoff behind the open problem in §3
	// ("Scheduling inhomogeneous graphs"). Experiment E17 maps this
	// frontier.
	MinT int64
}

// Name implements Scheduler.
func (s PartitionedBatch) Name() string {
	if s.MinT > 0 {
		return fmt.Sprintf("partitioned-batch(T>=%d)", s.MinT)
	}
	return "partitioned-batch"
}

// Prepare implements Scheduler.
func (s PartitionedBatch) Prepare(g *sdf.Graph, env Env) (*Plan, error) {
	p, err := resolvePartition(s.P, g, env)
	if err != nil {
		return nil, err
	}
	t0 := g.Repetitions(g.Source())
	target := env.M
	if s.MinT > 0 {
		target = s.MinT
	}
	mult := (target + t0 - 1) / t0
	if mult < 1 {
		mult = 1
	}
	t := t0 * mult
	caps := minBufCaps(g)
	quota := make([]int64, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		quota[v] = mult * g.Repetitions(sdf.NodeID(v)) // = T·gain(v)
	}
	for _, e := range p.CrossEdges(g) {
		ed := g.Edge(e)
		c := quota[ed.From] * ed.Out // = T·gain(e)
		if mb := g.MinBuf(e); c < mb {
			c = mb
		}
		caps[e] = c
	}
	return &Plan{
		Caps: caps,
		Runner: &batchRunner{
			p: p, members: p.Members(g), quota: quota, t: t,
		},
		CrossEdges: p.CrossEdges(g),
		Step:       t, // one batch
	}, nil
}

type batchRunner struct {
	p       *partition.Partition
	members [][]sdf.NodeID
	quota   []int64 // firings per module per batch
	t       int64   // source firings per batch
}

// Run implements Runner.
func (r *batchRunner) Run(m *exec.Machine, target int64) error {
	g := m.Graph()
	for m.SourceFirings() < target {
		base := make([]int64, g.NumNodes())
		for v := range base {
			base[v] = m.Fired(sdf.NodeID(v))
		}
		for c := 0; c < r.p.K; c++ {
			if err := r.runComponent(m, c, base); err != nil {
				return fmt.Errorf("schedule: batch component %d: %w", c, err)
			}
		}
	}
	return nil
}

// runComponent fires every member of component c up to its batch quota.
func (r *batchRunner) runComponent(m *exec.Machine, c int, base []int64) error {
	for {
		progress := false
		done := true
		for _, v := range r.members[c] {
			remaining := r.quota[v] - (m.Fired(v) - base[v])
			if remaining <= 0 {
				continue
			}
			done = false
			for remaining > 0 && m.CanFire(v) {
				if err := m.Fire(v); err != nil {
					return err
				}
				remaining--
				progress = true
			}
		}
		if done {
			return nil
		}
		if !progress {
			return fmt.Errorf("%w: component stalled mid-batch", ErrDeadlock)
		}
	}
}
