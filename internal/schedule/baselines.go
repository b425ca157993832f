package schedule

import (
	"fmt"

	"streamsched/internal/exec"
	"streamsched/internal/ratio"
	"streamsched/internal/sdf"
)

// FlatTopo is the naive baseline: the single-appearance periodic schedule
// that fires every module its full repetition count, in topological order,
// once per period. Buffers hold one period's production per channel. This
// is the standard compiler-default steady-state schedule; when the graph's
// total state exceeds the cache, every period reloads every module.
type FlatTopo struct{}

// Name implements Scheduler.
func (FlatTopo) Name() string { return "flat-topo" }

// Prepare implements Scheduler.
func (FlatTopo) Prepare(g *sdf.Graph, _ Env) (*Plan, error) {
	return flatPlan(g, 1)
}

// Scaled is the Sermulins-style execution-scaling baseline (§6): the flat
// schedule with every module invocation replaced by S back-to-back
// invocations, with buffers scaled accordingly. Scaling amortizes state
// loads across S firings but inflates buffers by S; past the cache size
// the buffers themselves start missing (the cliff of experiment E10).
type Scaled struct {
	// S is the scaling factor (S >= 1).
	S int64
}

// Name implements Scheduler.
func (s Scaled) Name() string { return fmt.Sprintf("scaled(s=%d)", s.S) }

// Prepare implements Scheduler.
func (s Scaled) Prepare(g *sdf.Graph, _ Env) (*Plan, error) {
	if s.S < 1 {
		return nil, fmt.Errorf("%w: scale %d < 1", ErrUnsupported, s.S)
	}
	return flatPlan(g, s.S)
}

// flatPlan is the flat schedule scaled by scale: buffers for scale
// periods, cap(e) = scale·reps(from)·out(e) (at least minBuf), and one
// step of scale·reps(source) source firings per period. A scale at which
// either does not fit in int64 is refused, as the request's fault
// (sdf.ErrUnprocessable).
func flatPlan(g *sdf.Graph, scale int64) (*Plan, error) {
	src := g.Source()
	step, ok := ratio.AddMul(0, scale, g.Repetitions(src))
	if !ok {
		return nil, fmt.Errorf("%w: scale %d times %d source firings per period overflows int64%.0w", ErrUnsupported, scale, g.Repetitions(src), sdf.ErrUnprocessable)
	}
	caps := minBufCaps(g)
	for e := range caps {
		ed := g.Edge(sdf.EdgeID(e))
		c, ok := ratio.AddMul(0, scale, g.Repetitions(ed.From))
		if ok {
			c, ok = ratio.AddMul(0, c, ed.Out)
		}
		if !ok {
			return nil, fmt.Errorf("%w: scale %d overflows int64 in the buffer of edge %d (%s -> %s)%.0w",
				ErrUnsupported, scale, e, g.Node(ed.From).Name, g.Node(ed.To).Name, sdf.ErrUnprocessable)
		}
		caps[e] = max(caps[e], c)
	}
	return &Plan{Caps: caps, Runner: flatRunner{scale: scale, g: g}, Step: step}, nil
}

// flatRunner executes scale·reps(v) firings of each module per period, in
// topological order.
type flatRunner struct {
	scale int64
	g     *sdf.Graph
}

// Run implements Runner.
func (r flatRunner) Run(m *exec.Machine, target int64) error {
	g := m.Graph()
	for m.SourceFirings() < target {
		for _, v := range g.Topo() {
			if err := m.FireTimes(v, r.scale*g.Repetitions(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// DemandDriven is the minimal-buffer baseline: every channel gets its
// minBuf capacity and modules fire one at a time whenever enabled, scanning
// in topological order. It has the smallest possible memory footprint and
// the finest interleaving — and therefore reloads module state constantly
// once total state exceeds the cache.
type DemandDriven struct{}

// Name implements Scheduler.
func (DemandDriven) Name() string { return "demand-driven" }

// Prepare implements Scheduler. A sweep fires the source at most once and
// Run stops only between sweeps, so every stop is exact; the step is one
// period's source firings.
func (DemandDriven) Prepare(g *sdf.Graph, _ Env) (*Plan, error) {
	return &Plan{Caps: minBufCaps(g), Runner: demandRunner{}, Step: g.Repetitions(g.Source())}, nil
}

type demandRunner struct{}

// Run implements Runner.
func (demandRunner) Run(m *exec.Machine, target int64) error {
	g := m.Graph()
	for m.SourceFirings() < target {
		progress := false
		for _, v := range g.Topo() {
			if m.CanFire(v) {
				if err := m.Fire(v); err != nil {
					return err
				}
				progress = true
			}
		}
		if !progress {
			return fmt.Errorf("%w: demand-driven stalled at %d source firings",
				ErrDeadlock, m.SourceFirings())
		}
	}
	return nil
}

// KohliGreedy is a baseline in the spirit of Kohli's greedy cache-aware
// heuristic for pipelines (§6, [15]): walk the modules in topological
// order and, at each module, keep firing as long as inputs are available
// and output space remains, so that each state load is amortized over as
// many consecutive firings as the local buffers allow. Buffers get a fixed
// fraction of the cache (M/4 items per channel), mirroring the heuristic's
// locally-chosen buffer budget. Unlike the paper's partitioned schedule,
// decisions are purely local, so cuts do not adapt to the gain profile.
type KohliGreedy struct{}

// Name implements Scheduler.
func (KohliGreedy) Name() string { return "kohli-greedy" }

// Prepare implements Scheduler. The step is one period's source firings.
func (k KohliGreedy) Prepare(g *sdf.Graph, env Env) (*Plan, error) {
	if env.M <= 0 {
		return nil, fmt.Errorf("%w: kohli-greedy needs M > 0", ErrUnsupported)
	}
	caps := make([]int64, g.NumEdges())
	budget := env.M / 4
	for e := range caps {
		c := budget
		if mb := g.MinBuf(sdf.EdgeID(e)); c < mb {
			c = mb
		}
		caps[e] = c
	}
	return &Plan{Caps: caps, Runner: greedyRunner{}, Step: g.Repetitions(g.Source())}, nil
}

// greedyRunner sweeps the modules in topological order, firing each while
// it can. The source comes first in every sweep, so a Run that stops in
// the source's burst resumes with a fresh sweep: that sweep's first act is
// the rest of the burst.
type greedyRunner struct{}

// Run implements Runner: it stops right after the source's target-th
// firing.
func (greedyRunner) Run(m *exec.Machine, target int64) error {
	g := m.Graph()
	for m.SourceFirings() < target {
		progress := false
		for _, v := range g.Topo() {
			for m.CanFire(v) {
				if err := m.Fire(v); err != nil {
					return err
				}
				progress = true
				if v == g.Source() && m.SourceFirings() >= target {
					return nil
				}
			}
		}
		if !progress {
			return fmt.Errorf("%w: greedy stalled at %d source firings",
				ErrDeadlock, m.SourceFirings())
		}
	}
	return nil
}

// settle implements burstRunner: it finishes the sweep a Run stopped in.
func (greedyRunner) settle(m *exec.Machine) error {
	for _, v := range m.Graph().Topo()[1:] {
		for m.CanFire(v) {
			if err := m.Fire(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendCursor implements burstRunner: a fresh sweep resumes any stop, so
// the runner carries nothing.
func (greedyRunner) appendCursor(dst []int64) []int64 { return dst }
