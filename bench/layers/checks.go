//go:build benchlayers

package main

import (
	"streamsched/bench/kit"
	"streamsched/internal/hierarchy"
	"streamsched/internal/trace"
)

// replayNaive runs a windowed trace through the bench's naive simulator:
// accesses before the window warm the cache, only those inside count.
func replayNaive(blocks []int64, window int64, sets, ways int64, fifo bool) int64 {
	sim := kit.NewRefSim(sets, ways, fifo)
	for i, blk := range blocks {
		if int64(i) == window {
			sim.Misses = 0
		}
		sim.Access(blk)
	}
	if window >= int64(len(blocks)) {
		return 0
	}
	return sim.Misses
}

// crossCheck holds every reported grid point against an independent
// computation: organisation points and L1 points against the bench's
// naive simulator, L2 points against the repo's pointwise simulators.
func crossCheck(p *prober, e *engine, log *trace.Log, curves []*trace.OrgCurves,
	hc *hierarchy.HierCurves, plog *trace.ProcLog, sc *hierarchy.SharedCurves) {
	b, window := int64(kit.BlockB), log.WindowStart()
	blocks := make([]int64, 0, log.Len())
	if err := log.ForEach(func(blk int64) { blocks = append(blocks, blk) }); err != nil {
		p.problem("replay of the trace: %v", err)
		return
	}
	geometry := func(capacity, ways int64) (sets, eff int64) {
		sets, _ = trace.SetsFor(capacity, b, ways) // the grids were validated when the specs were built
		return sets, trace.EffectiveWays(capacity, b, ways)
	}
	for _, w := range kit.OrgWays {
		for _, fifo := range []bool{false, true} {
			for _, c := range kit.OrgCaps {
				got, err := e.orgMisses(curves, c, w, fifo)
				sets, eff := geometry(c, w)
				if want := replayNaive(blocks, window, sets, eff, fifo); err != nil || got != want {
					p.problem("orgs point capacity %d ways %d fifo %v: profiler %d misses (%v), naive simulator %d", c, w, fifo, got, err, want)
				}
				p.res.NaivePoints++
			}
		}
	}
	for i, l1 := range e.hier.L1s {
		sets, eff := geometry(l1.Capacity, l1.Ways)
		if want := replayNaive(blocks, window, sets, eff, false); hc.L1Misses[i] != want {
			p.problem("hier L1 point %v: profiler %d misses, naive simulator %d", l1, hc.L1Misses[i], want)
		}
		p.res.NaivePoints++
		for j := range e.hier.L2s {
			sim, err := hierarchy.SimulateLog(log, e.hier.Config(i, j))
			if err != nil || sim.L2Stats().Misses != hc.L2Misses[i][j] || sim.L1Stats().Misses != hc.L1Misses[i] {
				p.problem("hier point (%d,%d): profiler disagrees with hierarchy.SimulateLog (%v)", i, j, err)
			}
			p.res.OraclePoints++
		}
	}

	// Shared grid: each processor's private L1 is its own naive cache.
	var procs []int
	var pblocks []int64
	if err := plog.ForEach(func(proc int, blk int64) {
		procs, pblocks = append(procs, proc), append(pblocks, blk)
	}); err != nil {
		p.problem("replay of the multiprocessor trace: %v", err)
		return
	}
	pwindow := plog.WindowStart()
	for i, l1 := range e.shared.L1s {
		sets, eff := geometry(l1.Capacity, l1.Ways)
		sims := make([]*kit.RefSim, e.shared.Procs)
		for q := range sims {
			sims[q] = kit.NewRefSim(sets, eff, false)
		}
		for k, blk := range pblocks {
			if int64(k) == pwindow {
				for _, s := range sims {
					s.Misses = 0
				}
			}
			sims[procs[k]].Access(blk)
		}
		for q, s := range sims {
			if sc.L1Misses[i][q] != s.Misses {
				p.problem("shared L1 point %v proc %d: profiler %d misses, naive simulator %d", l1, q, sc.L1Misses[i][q], s.Misses)
			}
		}
		p.res.NaivePoints++
		for j := range e.shared.L2s {
			sim, err := hierarchy.SimulateSharedLog(plog, e.shared.Config(i, j))
			if err != nil || sim.L2Stats().Misses != sc.L2Misses[i][j] {
				p.problem("shared point (%d,%d): profiler disagrees with hierarchy.SimulateSharedLog (%v)", i, j, err)
			}
			p.res.OraclePoints++
		}
	}
}
