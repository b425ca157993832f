//go:build benchlayers

package main

import (
	"bytes"
	"fmt"
	"os"

	"streamsched/bench/kit"
	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/hierarchy"
	"streamsched/internal/parallel"
	"streamsched/internal/partition"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// schedulerFor is the CLI's "partitioned" resolution: by graph shape.
func schedulerFor(g *sdf.Graph) schedule.Scheduler {
	switch {
	case g.IsPipeline():
		return schedule.PartitionedPipeline{}
	case g.IsHomogeneous():
		return schedule.PartitionedHomogeneous{}
	default:
		return schedule.PartitionedBatch{}
	}
}

// engine holds what the engine probes share.
type engine struct {
	gbytes []byte
	env    schedule.Env

	orgSpecs []trace.OrgSpec // Sets=1 first, as MeasureCurveOrgs profiles them
	orgIdx   map[int64]int   // set count -> index into orgSpecs[1:]
	hier     hierarchy.HierSpec
	shared   hierarchy.SharedSpec
}

func levels(caps, ways []int64) []hierarchy.Level {
	var ls []hierarchy.Level
	for _, c := range caps {
		for _, w := range ways {
			ls = append(ls, hierarchy.Level{Capacity: c, Block: kit.BlockB, Ways: w, Policy: cachesim.LRU})
		}
	}
	return ls
}

func newEngine(graphPath string) (*engine, error) {
	gbytes, err := os.ReadFile(graphPath)
	if err != nil {
		return nil, err
	}
	e := &engine{gbytes: gbytes, env: schedule.Env{M: kit.DesignM, B: kit.BlockB}}
	grid, idx, err := trace.GridSpecs(kit.OrgCaps, kit.BlockB, kit.OrgWays, true)
	if err != nil {
		return nil, err
	}
	e.orgSpecs, e.orgIdx = append([]trace.OrgSpec{{Sets: 1}}, grid...), idx
	e.hier = hierarchy.HierSpec{Block: kit.BlockB,
		L1s: levels(kit.HierL1Caps, kit.HierL1Ways), L2s: levels(kit.HierL2Caps, kit.HierL2Ways)}
	e.shared = hierarchy.SharedSpec{Block: kit.BlockB, Procs: kit.SharedProcs,
		L1s: levels(kit.HierL1Caps, kit.SharedL1Ways), L2s: levels(kit.HierL2Caps, kit.SharedL2Ways)}
	return e, nil
}

func (e *engine) parse() (*sdf.Graph, error) { return sdf.ReadJSON(bytes.NewReader(e.gbytes)) }

// record executes the planned schedule with a trace.Log attached, as
// schedule.MeasureCurveOrgs does, and returns the log and the number of
// module firings.
func (e *engine) record(g *sdf.Graph, plan *schedule.Plan, warm, measure int64) (*trace.Log, int64, error) {
	const b int64 = kit.BlockB
	roundUp := func(w int64) int64 { return (w + b - 1) / b * b }
	layout := b
	for v := 0; v < g.NumNodes(); v++ {
		layout += roundUp(g.Node(sdf.NodeID(v)).State)
	}
	for _, c := range plan.Caps {
		layout += roundUp(c)
	}
	log := trace.NewLog()
	m, err := exec.NewMachine(g, exec.Config{
		Cache:        cachesim.Config{Capacity: layout, Block: b},
		Caps:         plan.Caps,
		TrackLatency: g.Source() != g.Sink(),
		Recorder:     log,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := plan.Runner.Run(m, warm); err != nil {
		return nil, 0, err
	}
	log.MarkWindow()
	m.ResetLatency()
	if err := plan.Runner.Run(m, m.SourceFirings()+measure); err != nil {
		return nil, 0, err
	}
	var firings int64
	for v := 0; v < g.NumNodes(); v++ {
		firings += m.Fired(sdf.NodeID(v))
	}
	return log, firings, nil
}

// orgMisses looks one grid point up in a ProfileOrgsJobs result.
func (e *engine) orgMisses(curves []*trace.OrgCurves, capacity, ways int64, fifo bool) (int64, error) {
	sets, err := trace.SetsFor(capacity, kit.BlockB, ways)
	if err != nil {
		return 0, err
	}
	n, ok := curves[1+e.orgIdx[sets]].Misses(trace.EffectiveWays(capacity, kit.BlockB, ways), fifo)
	if !ok {
		return 0, fmt.Errorf("no FIFO curve at capacity %d ways %d", capacity, ways)
	}
	return n, nil
}

// render builds the grid's CSV the way `misscurve -csv` does.
func (e *engine) render(curves []*trace.OrgCurves, items int64) (int, error) {
	tb := report.NewTable("misses/item by organisation", "organisation", "capacity", "partitioned")
	for _, w := range kit.OrgWays {
		for _, fifo := range []bool{false, true} {
			for _, c := range kit.OrgCaps {
				n, err := e.orgMisses(curves, c, w, fifo)
				if err != nil {
					return 0, err
				}
				tb.Add(fmt.Sprintf("%v %d-way", fifo, w), report.I(c), report.F(float64(n)/float64(items)))
			}
		}
	}
	var buf bytes.Buffer
	err := tb.RenderCSV(&buf)
	return buf.Len(), err
}

// loop is how many calls one repetition of a microsecond-scale probe
// makes, so a repetition is long against the clock and the sentinel.
const loop = 20

// probeEngine times the engine's layers on the workload's first graph
// and cross-checks every grid point.
func probeEngine(p *prober, spec *kit.ProbeSpec) error {
	e, err := newEngine(spec.Graphs[0])
	if err != nil {
		return err
	}
	var fail error
	check := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}
	g, err := e.parse()
	if err != nil {
		return err
	}
	sched := schedulerFor(g)
	points := float64(2 * len(kit.OrgCaps) * len(kit.OrgWays))

	// The `misscurve` grid op, decomposed: one span per layer call under
	// one op span. Its total is what the layers own of that op.
	opReps := p.measure("misscurve grid op, in process", "op", func(i, span int) {
		t := p.now()
		lap := func(name, layer string) {
			now := p.now()
			p.span(name, layer, span, t, now)
			t = now
		}
		g, err := e.parse()
		check(err)
		lap("sdf.ReadJSON", "sdf")
		plan, err := sched.Prepare(g, e.env)
		check(err)
		lap("Scheduler.Prepare", "schedule")
		if err != nil {
			return
		}
		log, _, err := e.record(g, plan, kit.GridWarm, kit.GridMeasure)
		check(err)
		lap("exec.Machine run + trace.Log", "exec")
		if err != nil {
			return
		}
		curves, err := trace.ProfileOrgsJobs(log, e.orgSpecs, 0, 0)
		check(err)
		lap("trace.ProfileOrgsJobs", "trace")
		if err == nil {
			_, err = e.render(curves, kit.GridMeasure)
			check(err)
		}
		lap("report.Table.RenderCSV", "report")
		log.Close()
	})
	if fail != nil {
		return fail
	}
	p.res.CLIProbeLayersMS = medianOf(opReps, wallMS)

	// Each layer alone.
	parseReps := p.measure("sdf.ReadJSON x20", "sdf", func(int, int) {
		for range loop {
			_, err := e.parse()
			check(err)
		}
	})
	p.set("sdf.parse_us", medianOf(parseReps, wallMS)*1e3/loop, "us")
	p.set("sdf.parse_allocs", medianOf(parseReps, func(r rep) float64 { return r.mallocs })/loop, "count")

	planReps := p.measure("Scheduler.Prepare x20", "schedule", func(int, int) {
		for range loop {
			_, err := sched.Prepare(g, e.env)
			check(err)
		}
	})
	p.set("schedule.plan_us", medianOf(planReps, wallMS)*1e3/loop, "us")
	p.set("schedule.plan_allocs", medianOf(planReps, func(r rep) float64 { return r.mallocs })/loop, "count")

	var log *trace.Log
	var firings int64
	recordReps := p.measure("exec.Machine run + trace.Log", "exec", func(int, int) {
		plan, err := sched.Prepare(g, e.env)
		check(err)
		if err != nil {
			return
		}
		if log != nil {
			log.Close()
		}
		log, firings, err = e.record(g, plan, spec.Warm, spec.Measure)
		check(err)
	})
	if fail != nil {
		return fail
	}
	defer log.Close()
	// The grid probes' trace; the same one when the workload's own window
	// is the CLI ops'.
	gridLog := log
	if kit.GridWarm != spec.Warm || kit.GridMeasure != spec.Measure {
		plan, err := sched.Prepare(g, e.env)
		if err != nil {
			return err
		}
		if gridLog, _, err = e.record(g, plan, kit.GridWarm, kit.GridMeasure); err != nil {
			return err
		}
		defer gridLog.Close()
	}
	gridAccesses := float64(gridLog.Len())
	accesses := float64(log.Len())
	planMS := medianOf(planReps, wallMS) / loop
	recordMS := medianOf(recordReps, wallMS) - planMS
	p.set("exec.record_ns_per_access", recordMS*1e6/accesses, "ns")
	p.set("exec.accesses", accesses, "count")
	p.set("exec.firings", float64(firings), "count")
	p.set("trace.log_bytes_per_access", float64(log.EncodedBytes())/accesses, "B")

	decodeReps := p.measure("trace.Log.ForEach", "trace", func(int, int) {
		var n int64
		check(log.ForEach(func(int64) { n++ }))
	})
	p.set("trace.decode_ns_per_access", medianOf(decodeReps, wallMS)*1e6/accesses, "ns")

	faReps := p.measure("trace.ProfileOrgsJobs Sets=1 jobs=1", "trace", func(int, int) {
		_, err := trace.ProfileOrgsJobs(log, e.orgSpecs[:1], 1, 1)
		check(err)
	})
	faMS := medianOf(faReps, wallMS)
	p.set("trace.profile_fa_ns_per_access", faMS*1e6/accesses, "ns")

	var curves []*trace.OrgCurves
	seqReps := p.measure("trace.ProfileOrgsJobs grid jobs=1", "trace", func(int, int) {
		curves, err = trace.ProfileOrgsJobs(gridLog, e.orgSpecs, 1, 1)
		check(err)
	})
	autoReps := p.measure("trace.ProfileOrgsJobs grid jobs=0", "trace", func(int, int) {
		_, err := trace.ProfileOrgsJobs(gridLog, e.orgSpecs, 0, 0)
		check(err)
	})
	if fail != nil {
		return fail
	}
	seqNS := medianOf(seqReps, wallMS) * 1e6 / gridAccesses / points
	p.set("trace.orgs_seq_ns_per_access_point", seqNS, "ns")
	p.set("trace.orgs_auto_ns_per_access_point", medianOf(autoReps, wallMS)*1e6/gridAccesses/points, "ns")
	p.set("trace.orgs_auto_cpu_over_wall", medianOf(autoReps, func(r rep) float64 { return r.cpuMS / r.rawMS }), "ratio")
	p.set("trace.orgs_alloc_mb", medianOf(autoReps, func(r rep) float64 { return r.allocMB }), "MB")
	p.set("trace.grid_points", points, "count")

	renderReps := p.measure("report.Table.RenderCSV x20", "report", func(int, int) {
		for range loop {
			_, err := e.render(curves, kit.GridMeasure)
			check(err)
		}
	})
	p.set("report.render_us", medianOf(renderReps, wallMS)*1e3/loop, "us")

	// One concrete cache, pointwise: what every grid point would cost
	// without the one-pass design.
	blocks := make([]int64, 0, log.Len())
	check(log.ForEach(func(blk int64) { blocks = append(blocks, blk) }))
	pointReps := p.measure("cachesim.Cache replay, one point", "cachesim", func(int, int) {
		c, err := cachesim.New(cachesim.Config{Capacity: kit.OrgCaps[0], Block: kit.BlockB, Ways: 2})
		check(err)
		if err != nil {
			return
		}
		for _, blk := range blocks {
			c.AccessBlock(blk, false)
		}
	})
	pointNS := medianOf(pointReps, wallMS) * 1e6 / accesses
	p.set("cachesim.pointwise_ns_per_access", pointNS, "ns")
	p.set("cachesim.onepass_gain", pointNS/seqNS, "ratio")

	// Two-level grids.
	hierPoints := float64(len(e.hier.L1s) * len(e.hier.L2s))
	var hc *hierarchy.HierCurves
	hierSeq := p.measure("hierarchy.ProfileHierJobs jobs=1", "hierarchy", func(int, int) {
		hc, err = hierarchy.ProfileHierJobs(gridLog, e.hier, 1, 1)
		check(err)
	})
	hierAuto := p.measure("hierarchy.ProfileHierJobs jobs=0", "hierarchy", func(int, int) {
		_, err := hierarchy.ProfileHierJobs(gridLog, e.hier, 0, 0)
		check(err)
	})
	p.set("hierarchy.hier_seq_ns_per_access_point", medianOf(hierSeq, wallMS)*1e6/gridAccesses/hierPoints, "ns")
	p.set("hierarchy.hier_auto_ns_per_access_point", medianOf(hierAuto, wallMS)*1e6/gridAccesses/hierPoints, "ns")

	var plog *trace.ProcLog
	tracedReps := p.measure("partition.Auto + parallel.RunTraced", "parallel", func(int, int) {
		part, err := partition.Auto(g, kit.DesignM)
		check(err)
		if err != nil {
			return
		}
		if plog != nil {
			plog.Close()
		}
		_, plog, err = parallel.RunTraced(g, part, parallel.Config{
			Procs: kit.SharedProcs,
			Env:   e.env,
			Cache: cachesim.Config{Capacity: 2 * kit.DesignM, Block: kit.BlockB},
			Rule:  parallel.AutoRule,
		}, kit.GridWarm, kit.GridMeasure)
		check(err)
	})
	if fail != nil {
		return fail
	}
	defer plog.Close()
	paccesses := float64(plog.Len())
	p.set("parallel.run_traced_ns_per_access", medianOf(tracedReps, wallMS)*1e6/paccesses, "ns")
	p.set("parallel.accesses", paccesses, "count")

	sharedPoints := float64(len(e.shared.L1s) * len(e.shared.L2s))
	var sc *hierarchy.SharedCurves
	sharedSeq := p.measure("hierarchy.ProfileSharedJobs jobs=1", "hierarchy", func(int, int) {
		sc, err = hierarchy.ProfileSharedJobs(plog, e.shared, 1, 1)
		check(err)
	})
	sharedAuto := p.measure("hierarchy.ProfileSharedJobs jobs=0", "hierarchy", func(int, int) {
		_, err := hierarchy.ProfileSharedJobs(plog, e.shared, 0, 0)
		check(err)
	})
	if fail != nil {
		return fail
	}
	p.set("hierarchy.shared_seq_ns_per_access_point", medianOf(sharedSeq, wallMS)*1e6/paccesses/sharedPoints, "ns")
	p.set("hierarchy.shared_auto_ns_per_access_point", medianOf(sharedAuto, wallMS)*1e6/paccesses/sharedPoints, "ns")
	p.set("hierarchy.alloc_mb", medianOf(hierAuto, func(r rep) float64 { return r.allocMB })+
		medianOf(sharedAuto, func(r rep) float64 { return r.allocMB }), "MB")

	// What the layers own of one op of the workload itself. The daemon
	// workloads' sums come from the service probe.
	switch spec.Workload {
	case "orgs-grid":
		p.res.OpLayersMS = p.res.CLIProbeLayersMS
	case "hier-shared":
		parseMS := medianOf(parseReps, wallMS) / loop
		renderMS := medianOf(renderReps, wallMS) / loop
		p.res.OpLayersMS = 2*parseMS + medianOf(recordReps, wallMS) + medianOf(hierAuto, wallMS) +
			medianOf(tracedReps, wallMS) + medianOf(sharedAuto, wallMS) + 2*renderMS
	}

	crossCheck(p, e, gridLog, curves, hc, plog, sc)
	return fail
}
