package schedule

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/sdf"
)

// BufferUse reports one channel's allocated capacity against the occupancy
// its plan actually reached.
type BufferUse struct {
	Edge      sdf.EdgeID
	Cap       int64
	HighWater int64
	Cross     bool
}

// Utilization returns HighWater/Cap.
func (u BufferUse) Utilization() float64 {
	if u.Cap == 0 {
		return 0
	}
	return float64(u.HighWater) / float64(u.Cap)
}

// probeMachine returns an unaccounted machine for plan. Occupancy and
// firing order do not depend on the cache, so it gets a minimal one-block
// cache (block env.B, 16 when unset); BufferUtilization and Compile probe
// on it. Neither has a measured window, so neither goes through Window.
func probeMachine(g *sdf.Graph, plan *Plan, env Env) (*exec.Machine, error) {
	blk := env.B
	if blk <= 0 {
		blk = 16
	}
	return exec.NewMachine(g, exec.Config{
		Cache: cachesim.Config{Capacity: blk, Block: blk},
		Caps:  plan.Caps,
	})
}

// BufferUtilization probes a plan: it runs the scheduler for `probe`
// source firings on an unaccounted machine and reports each channel's
// high-water occupancy. The paper leaves improved cross-edge buffer sizing
// for inhomogeneous graphs as an open problem (§3); this measurement shows
// where a plan's memory actually goes, and together with
// PartitionedBatch.MinT (which shrinks T below M at the cost of extra
// component loads) maps the buffer/miss tradeoff empirically (E17).
func BufferUtilization(g *sdf.Graph, s Scheduler, env Env, probe int64) ([]BufferUse, error) {
	if probe <= 0 {
		return nil, fmt.Errorf("schedule: probe must be positive, got %d", probe)
	}
	plan, err := s.Prepare(g, env)
	if err != nil {
		return nil, err
	}
	m, err := probeMachine(g, plan, env)
	if err != nil {
		return nil, err
	}
	if err := settledRun(m, plan, probe); err != nil {
		return nil, err
	}
	isCross := make(map[sdf.EdgeID]bool, len(plan.CrossEdges))
	for _, e := range plan.CrossEdges {
		isCross[e] = true
	}
	uses := make([]BufferUse, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		id := sdf.EdgeID(e)
		uses[e] = BufferUse{
			Edge:      id,
			Cap:       plan.Caps[e],
			HighWater: m.Buf(id).HighWater(),
			Cross:     isCross[id],
		}
	}
	return uses, nil
}
