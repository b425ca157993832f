package streamsched_test

// One benchmark per experiment in cmd/experiments/README.md. Each bench
// reports the experiment's headline metric (misses/item in the DAM model,
// or ns/item on real hardware for E14) via b.ReportMetric, so `go test
// -bench=.` regenerates every table's characteristic numbers at reduced
// scale; cmd/experiments prints the full tables.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/hierarchy"
	"streamsched/internal/lowerbound"
	"streamsched/internal/obs"
	"streamsched/internal/parallel"
	"streamsched/internal/partition"
	"streamsched/internal/randgraph"
	"streamsched/internal/realexec"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
	"streamsched/workloads"

	"math/rand"
)

// benchPipeline builds the standard uniform benchmark pipeline.
func benchPipeline(b *testing.B, n int, state int64) *sdf.Graph {
	b.Helper()
	bld := sdf.NewBuilder("bench-pipeline")
	ids := make([]sdf.NodeID, n)
	for i := range ids {
		s := state
		if i == 0 || i == n-1 {
			s = 0
		}
		ids[i] = bld.AddNode(fmt.Sprintf("m%d", i), s)
	}
	bld.Chain(ids...)
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchMeasure runs one Measure sized to b.N source firings and reports
// misses/item.
func benchMeasure(b *testing.B, g *sdf.Graph, s schedule.Scheduler, env schedule.Env, cacheWords int64) {
	b.Helper()
	window := int64(b.N)
	if window < 256 {
		window = 256
	}
	cfg := cachesim.Config{Capacity: cacheWords, Block: env.B}
	res, err := schedule.Measure(g, s, env, cfg, 256, window)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.MissesPerItem, "misses/item")
	b.ReportMetric(0, "ns/op") // simulator benches report model cost, not time
}

func BenchmarkE1PipelineVsM(b *testing.B) {
	g := benchPipeline(b, 34, 128)
	for _, m := range []int64{256, 1024} {
		env := schedule.Env{M: m, B: 16}
		scheds := []schedule.Scheduler{
			schedule.FlatTopo{}, schedule.Scaled{S: 4}, schedule.DemandDriven{},
			schedule.KohliGreedy{}, schedule.PartitionedPipeline{},
		}
		for _, s := range scheds {
			b.Run(fmt.Sprintf("M=%d/%s", m, s.Name()), func(b *testing.B) {
				benchMeasure(b, g, s, env, 2*m)
			})
		}
	}
}

func BenchmarkE2PipelineLength(b *testing.B) {
	env := schedule.Env{M: 256, B: 16}
	for _, n := range []int{10, 34, 66} {
		g := benchPipeline(b, n, 128)
		b.Run(fmt.Sprintf("n=%d/flat", n), func(b *testing.B) {
			benchMeasure(b, g, schedule.FlatTopo{}, env, 2*env.M)
		})
		b.Run(fmt.Sprintf("n=%d/partitioned", n), func(b *testing.B) {
			benchMeasure(b, g, schedule.PartitionedPipeline{}, env, 2*env.M)
		})
	}
}

func BenchmarkE3Partitioners(b *testing.B) {
	g := benchPipeline(b, 66, 128)
	fm, err := workloads.FMRadio(8, 128)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"pipeline-theorem5", func() error { _, err := partition.PipelineTheorem5(g, 512); return err }},
		{"pipeline-dp", func() error { _, err := partition.PipelineOptimalDP(g, 512); return err }},
		{"dag-interval", func() error { _, err := partition.BestInterval(fm, 512); return err }},
		{"dag-agglomerative", func() error { _, err := partition.Agglomerative(fm, 512); return err }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE4Bounds(b *testing.B) {
	g := benchPipeline(b, 18, 128)
	env := schedule.Env{M: 256, B: 16}
	bound, err := lowerbound.Pipeline(g, env.M, env.B)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("partitioned-vs-bound", func(b *testing.B) {
		window := int64(b.N)
		if window < 512 {
			window = 512
		}
		cfg := cachesim.Config{Capacity: 4 * env.M, Block: env.B}
		res, err := schedule.Measure(g, schedule.PartitionedPipeline{}, env, cfg, 512, window)
		if err != nil {
			b.Fatal(err)
		}
		per := float64(res.Stats.Misses) / float64(res.SourceFired)
		b.ReportMetric(per/bound.PerSourceFiring, "x-lower-bound")
	})
}

func BenchmarkE5Augmentation(b *testing.B) {
	g := benchPipeline(b, 34, 128)
	env := schedule.Env{M: 256, B: 16}
	for _, c := range []int64{1, 2, 4} {
		b.Run(fmt.Sprintf("cache=%dM", c), func(b *testing.B) {
			benchMeasure(b, g, schedule.PartitionedPipeline{}, env, c*env.M)
		})
	}
}

func BenchmarkE6DagWorkloads(b *testing.B) {
	m := int64(512)
	graphs, err := workloads.Suite(m)
	if err != nil {
		b.Fatal(err)
	}
	env := schedule.Env{M: m, B: 16}
	for _, g := range graphs {
		var part schedule.Scheduler
		switch {
		case g.IsPipeline():
			part = schedule.PartitionedPipeline{}
		case g.IsHomogeneous():
			part = schedule.PartitionedHomogeneous{}
		default:
			part = schedule.PartitionedBatch{}
		}
		b.Run(g.Name()+"/flat", func(b *testing.B) {
			benchMeasure(b, g, schedule.FlatTopo{}, env, 2*m)
		})
		b.Run(g.Name()+"/partitioned", func(b *testing.B) {
			benchMeasure(b, g, part, env, 2*m)
		})
	}
}

func BenchmarkE7Inhomogeneous(b *testing.B) {
	env := schedule.Env{M: 512, B: 16}
	mp3, err := workloads.MP3Decoder(env.M / 4)
	if err != nil {
		b.Fatal(err)
	}
	fb, err := workloads.Filterbank(6, 4, env.M/4)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []*sdf.Graph{mp3, fb} {
		b.Run(g.Name(), func(b *testing.B) {
			benchMeasure(b, g, schedule.PartitionedBatch{}, env, 2*env.M)
		})
	}
}

func BenchmarkE8BlockSize(b *testing.B) {
	g := benchPipeline(b, 34, 128)
	for _, blk := range []int64{8, 32, 128} {
		env := schedule.Env{M: 512, B: blk}
		b.Run(fmt.Sprintf("B=%d", blk), func(b *testing.B) {
			benchMeasure(b, g, schedule.PartitionedPipeline{}, env, 2*env.M)
		})
	}
}

func BenchmarkE9Exact(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g, err := randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
		Layers: 3, Width: 3, StateMin: 8, StateMax: 48, ExtraEdges: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact-11-nodes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.Exact(g, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE10ScalingCliff(b *testing.B) {
	g := benchPipeline(b, 34, 128)
	env := schedule.Env{M: 512, B: 16}
	for _, s := range []int64{1, 16, 256} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			benchMeasure(b, g, schedule.Scaled{S: s}, env, env.M)
		})
	}
}

func BenchmarkE11DegreeLimit(b *testing.B) {
	env := schedule.Env{M: 256, B: 16}
	for _, fan := range []int{8, 64} {
		bld := sdf.NewBuilder(fmt.Sprintf("fan%d", fan))
		src := bld.AddNode("src", 0)
		split := bld.AddNode("split", 48)
		join := bld.AddNode("join", 48)
		sink := bld.AddNode("sink", 0)
		bld.Connect(src, split, 1, 1)
		for i := 0; i < fan; i++ {
			w := bld.AddNode(fmt.Sprintf("w%d", i), 48)
			bld.Connect(split, w, 1, 1)
			bld.Connect(w, join, 1, 1)
		}
		bld.Connect(join, sink, 1, 1)
		g, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("fanout=%d", fan), func(b *testing.B) {
			benchMeasure(b, g, schedule.PartitionedHomogeneous{}, env, 2*env.M)
		})
	}
}

func BenchmarkE12Policies(b *testing.B) {
	g := benchPipeline(b, 34, 128)
	env := schedule.Env{M: 512, B: 16}
	configs := []struct {
		name string
		cfg  cachesim.Config
	}{
		{"lru", cachesim.Config{Capacity: 1024, Block: 16}},
		{"fifo", cachesim.Config{Capacity: 1024, Block: 16, Policy: cachesim.FIFO}},
		{"lru-8way", cachesim.Config{Capacity: 1024, Block: 16, Ways: 8}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			window := int64(b.N)
			if window < 256 {
				window = 256
			}
			res, err := schedule.Measure(g, schedule.PartitionedPipeline{}, env, c.cfg, 256, window)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MissesPerItem, "misses/item")
		})
	}
}

func BenchmarkE13Parallel(b *testing.B) {
	g, err := workloads.Beamformer(8, 4, 85)
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		b.Run(fmt.Sprintf("P=%d", procs), func(b *testing.B) {
			target := int64(b.N)
			if target < 512 {
				target = 512
			}
			res, err := parallel.Run(g, nil, parallel.Config{
				Procs: procs,
				Env:   schedule.Env{M: 256, B: 16},
				Cache: cachesim.Config{Capacity: 512, Block: 16},
				Rule:  parallel.HomogeneousRule,
			}, target)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.MakespanBlocks)/float64(res.SourceFired), "makespan-blocks/item")
		})
	}
}

func BenchmarkE15OptReplay(b *testing.B) {
	g := benchPipeline(b, 34, 128)
	env := schedule.Env{M: 512, B: 16}
	plan, err := (schedule.PartitionedPipeline{}).Prepare(g, env)
	if err != nil {
		b.Fatal(err)
	}
	mach, err := exec.NewMachine(g, exec.Config{
		Cache: cachesim.Config{Capacity: 1024, Block: 16}, Caps: plan.Caps,
	})
	if err != nil {
		b.Fatal(err)
	}
	var blocks []int64
	mach.Cache().SetObserver(func(base, n int64) {
		for end := base + n; base < end; base++ {
			blocks = append(blocks, base)
		}
	})
	if err := plan.Runner.Run(mach, 2048); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cachesim.SimulateOPT(blocks, 64)
	}
}

func BenchmarkE16ClassifiedMeasure(b *testing.B) {
	g := benchPipeline(b, 34, 128)
	env := schedule.Env{M: 512, B: 16}
	window := int64(b.N)
	if window < 256 {
		window = 256
	}
	res, err := schedule.Measure(g, schedule.PartitionedPipeline{}, env,
		cachesim.Config{Capacity: 1024, Block: 16}, 256, window)
	if err != nil {
		b.Fatal(err)
	}
	items := float64(res.InputItems)
	b.ReportMetric(float64(res.ClassMisses.Get(cachesim.ClassState))/items, "state-misses/item")
	b.ReportMetric(float64(res.ClassMisses.Get(cachesim.ClassCrossBuffer))/items, "cross-misses/item")
}

func BenchmarkE17BatchSizeSweep(b *testing.B) {
	env := schedule.Env{M: 512, B: 16}
	g, err := workloads.MP3Decoder(env.M / 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, tTarget := range []int64{128, 512, 2048} {
		b.Run(fmt.Sprintf("T=%d", tTarget), func(b *testing.B) {
			benchMeasure(b, g, schedule.PartitionedBatch{MinT: tTarget}, env, 2*env.M)
		})
	}
}

// BenchmarkE14RealMemory executes schedules against real arrays — no
// simulator — so ns/item reflects the hardware cache hierarchy. The
// partitioned schedule should be markedly faster per item than the flat
// schedule once total state exceeds the last-level-cache-resident range.
func BenchmarkE14RealMemory(b *testing.B) {
	const (
		n     = 34
		state = 1 << 15 // 32K int64 = 256 KiB per module, ~8 MiB total
		m     = 1 << 16 // partition bound: 64K words = 512 KiB per segment
	)
	g := benchPipeline(b, n, state)
	b.Run("flat", func(b *testing.B) {
		mach, err := realexec.New(g, realexec.FlatCaps(g))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		mach.RunFlat(int64(b.N))
		b.StopTimer()
		if mach.Checksum() == 0 {
			b.Fatal("checksum zero")
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		p, err := partition.PipelineOptimalDP(g, m)
		if err != nil {
			b.Fatal(err)
		}
		mach, err := realexec.New(g, realexec.SegmentCaps(g, p, m))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if err := mach.RunSegments(p, int64(b.N)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if mach.Checksum() == 0 {
			b.Fatal("checksum zero")
		}
	})
}

// BenchmarkE19MissCurveSweep compares the cost of an M-sweep done the old
// way (one full Measure per cache size) against the one-pass miss-curve
// engine (record one trace, reuse-distance profile it, read off every
// capacity). The engine's time is independent of the number of swept
// points; the naive sweep scales linearly with them.
func BenchmarkE19MissCurveSweep(b *testing.B) {
	g := benchPipeline(b, 34, 128)
	env := schedule.Env{M: 512, B: 16}
	caps := []int64{256, 512, 1024, 2048, 4096}
	warm, meas := int64(256), int64(2048)
	b.Run(fmt.Sprintf("%d-point-simulate", len(caps)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range caps {
				cfg := cachesim.Config{Capacity: c, Block: env.B}
				if _, err := schedule.Measure(g, schedule.PartitionedPipeline{}, env, cfg, warm, meas); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("miss-curve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cr, err := schedule.MeasureCurve(g, schedule.PartitionedPipeline{}, env, env.B, warm, meas)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range caps {
				_ = cr.Curve.MissesAtCapacity(c, env.B)
			}
		}
	})
	// The schedulers that stop mid-burst fold their steady state too: an
	// LRU organisation grid over DES, whose window folds, so a window 16x
	// longer costs about the same. key-share times a step of the record
	// (b.N steps, ns/op) and the recurrence key's build and full-length
	// compare at the step boundary, the search's cost per step.
	des, err := workloads.DES(16, 128)
	if err != nil {
		b.Fatal(err)
	}
	specs, _, err := trace.GridSpecs(caps, env.B, []int64{1, 2, 4, 8, 0}, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []schedule.Scheduler{schedule.DemandDriven{}, schedule.KohliGreedy{}, schedule.PartitionedPipeline{}} {
		for _, n := range []int64{4096, 65536} {
			b.Run(fmt.Sprintf("fold/des/%s/measure=%d", s.Name(), n), func(b *testing.B) {
				reg := obs.NewRegistry()
				folding := env
				folding.Metrics = reg
				for i := 0; i < b.N; i++ {
					if _, err := schedule.MeasureCurveOrgs(des, s, folding, env.B, 1024, n, specs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(reg.Counter("schedule.window.folded_periods").Value())/float64(b.N), "folded-periods")
			})
		}
		b.Run("key-share/des/"+s.Name(), func(b *testing.B) {
			plan, err := s.Prepare(des, env)
			if err != nil {
				b.Fatal(err)
			}
			prof, err := trace.NewOrgProfilers(append([]trace.OrgSpec{{Sets: 1}}, specs...))
			if err != nil {
				b.Fatal(err)
			}
			m, err := exec.NewMachine(des, exec.Config{Cache: cachesim.Config{Block: env.B}, Caps: plan.Caps, TrackLatency: true, Recorder: prof})
			if err != nil {
				b.Fatal(err)
			}
			prof.StartWarmup()
			if err := plan.Runner.Run(m, 1024); err != nil {
				b.Fatal(err)
			}
			prof.ResetCounts()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := plan.Runner.Run(m, m.SourceFirings()+plan.Step); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			step := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			saved := m.AppendState(nil)
			key := slices.Clone(saved)
			const keys = 100_000
			start := time.Now()
			for range keys {
				if key = m.AppendState(key[:0]); !slices.Equal(key, saved) {
					b.Fatal("the key changed")
				}
			}
			perKey := float64(time.Since(start).Nanoseconds()) / keys
			b.ReportMetric(perKey, "key-ns")
			b.ReportMetric(100*perKey/step, "key-share-%")
		})
	}
}

// BenchmarkE20HierSweep compares a 12-point (L1, L2) hierarchy grid done
// pointwise (one full execution through the two-level simulator per
// point) against the one-pass composition (one recorded trace, L1 curves
// plus filtered-miss-stream L2 curves for every point at once).
func BenchmarkE20HierSweep(b *testing.B) {
	g := benchPipeline(b, 30, 128)
	env := schedule.Env{M: 512, B: 16}
	spec := hierarchy.HierSpec{
		Block: env.B,
		L1s: []hierarchy.Level{
			{Capacity: 256, Block: env.B, Ways: 1},
			{Capacity: 256, Block: env.B},
			{Capacity: 512, Block: env.B, Ways: 1},
			{Capacity: 512, Block: env.B},
		},
		L2s: []hierarchy.Level{
			{Capacity: 2048, Block: env.B},
			{Capacity: 4096, Block: 64, Ways: 8},
			{Capacity: 4096, Block: 64, Ways: 4, Policy: cachesim.FIFO},
		},
	}
	warm, meas := int64(256), int64(2048)
	b.Run("pointwise-simulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for pi := range spec.L1s {
				for pj := range spec.L2s {
					if _, err := schedule.MeasureHierPoint(g, schedule.PartitionedPipeline{}, env,
						spec.Config(pi, pj), warm, meas); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("hier-curves", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hr, err := schedule.MeasureHier(g, schedule.PartitionedPipeline{}, env, spec, warm, meas)
			if err != nil {
				b.Fatal(err)
			}
			_, m2 := hr.MissesPerItem(0, 0)
			b.ReportMetric(m2, "mem-misses/item")
		}
	})
}
