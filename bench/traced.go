//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"streamsched/bench/kit"
)

const (
	// tracedOps ordinary ops run with span recording on, and as many with
	// it off; the difference is trace_overhead_share.
	tracedOps = 20
	// probeTimeout bounds the layer probe.
	probeTimeout = 120 * time.Second
)

// probeInputs is what a workload gives the layer probe to work on.
type probeInputs struct {
	graphs        []kit.Graph
	warm, measure int64 // the engine window of the workload's op
	daemonMeasure int64 // the window of the daemon requests the probe makes
}

// series runs f n times, each between two sentinel readings, and returns
// the normalised milliseconds of every call.
func series(env *benchEnv, n int, f func(i int) error) ([]float64, error) {
	raw := make([]float64, 0, n)
	sentinels := append(make([]kit.Reading, 0, n+1), env.sent.Measure())
	for i := 0; i < n; i++ {
		ms, err := timeMS(func() error { return f(i) })
		if err != nil {
			return nil, err
		}
		raw = append(raw, ms)
		sentinels = append(sentinels, env.sent.Measure())
	}
	norm, _, err := env.normalise(raw, sentinels)
	return norm, err
}

// runTraced is the traced run: one set-up, tracedOps ops with spans and
// as many without, the layer probe on the workload's own inputs, and the
// two glue probes. It reports the per-layer metrics; end-to-end metrics
// are only ever taken by runEndToEnd.
func runTraced(env *benchEnv, w workloadDef) (*result, error) {
	bins := env.bins
	rec := newSpanRecorder()
	d := w.new(env)
	res := &result{Workload: w.name, Seed: env.seed, Seconds: env.seconds, Traced: true, Exponent: env.exponent, Degraded: env.degraded}

	defer d.tearDown() // a second tear-down does nothing
	setupRaw, _, before, err := setUpTimed(env, d)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	cpu0, err := d.usage()
	if err != nil {
		return nil, err
	}
	var raw, tracedMS, plainMS []float64
	sentinels := []kit.Reading{before}
	failed := 0
	for i := 0; i < 2*tracedOps; i++ {
		// Even ops record spans, odd ops do not.
		env.rec = nil
		if i%2 == 0 {
			env.rec = rec
			rec.opID++
			rec.op = rec.begin(w.name+" op", "e2e", -1)
		}
		ms, err := timeMS(func() error { return d.op(i) })
		if i%2 == 0 {
			rec.end(rec.op)
		}
		if err != nil {
			failed++
			res.Problems = append(res.Problems, fmt.Sprintf("op %d: %v", i, err))
		}
		raw = append(raw, ms)
		sentinels = append(sentinels, env.sent.Measure())
	}
	env.rec = nil
	norm, factors, err := env.normalise(raw, sentinels)
	if err != nil {
		return nil, err
	}
	for i, n := range norm {
		if i%2 == 0 {
			tracedMS = append(tracedMS, n)
		} else {
			plainMS = append(plainMS, n)
		}
	}
	cpu1, err := d.usage()
	if err != nil {
		return nil, err
	}
	problems, counts := d.verify()
	res.Problems = append(res.Problems, problems...)
	res.Machine = machineStanza(env, d)
	in := d.probeInputs(kit.ProbeReps + 1)
	if err := d.tearDown(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}

	ms := map[string]kit.Metric{
		"raw.op_p50_ms":        {Value: kit.Median(raw), Unit: "ms"},
		"raw.cpu_ms_per_op":    {Value: (cpu1 - cpu0) * 1e3 / float64(len(raw)), Unit: "ms"},
		"build_s":              {Value: bins.buildS, Unit: "s"},
		"trace_overhead_share": {Value: kit.Median(tracedMS)/kit.Median(plainMS) - 1, Unit: "ratio"},
	}
	maps.Copy(ms, hostMetrics(sentinels, factors))
	res.Diagnostics = map[string]kit.Metric{
		"raw.setup_s":          {Value: setupRaw, Unit: "s"},
		"op_p50_ms.traced_run": {Value: kit.Median(norm), Unit: "ms"},
	}
	maps.Copy(res.Diagnostics, counts)

	spans := rec.spans
	if bins.layers == "" {
		fmt.Printf("layers: unavailable: %s\n", bins.layersErr)
		res.Problems = append(res.Problems, "layers: unavailable")
	} else {
		pr, err := runProbe(env, w, in)
		if err != nil {
			return nil, err
		}
		maps.Copy(ms, pr.Metrics)
		res.Problems = append(res.Problems, pr.Problems...)
		fmt.Printf("cross-checks: %d grid points equal the bench's naive simulator, %d equal the repo's pointwise oracles, %d disagree\n",
			pr.NaivePoints, pr.OraclePoints, len(pr.Problems))
		offset := len(spans)
		for _, s := range pr.Spans {
			if s.Parent >= 0 {
				s.Parent += offset
			}
			spans = append(spans, s)
		}
		cliMS, hitUS, err := glueProbes(env, in)
		if err != nil {
			return nil, err
		}
		ms["glue.cli_ms"] = kit.Metric{Value: cliMS - pr.CLIProbeLayersMS, Unit: "ms"}
		ms["glue.http_us"] = kit.Metric{Value: hitUS - pr.Metrics["server.hit_fast_us"].Value, Unit: "us"}
		ms["glue.unattributed_share"] = kit.Metric{Value: 1 - pr.OpLayersMS/kit.Median(norm), Unit: "ratio"}
		res.Diagnostics["op_layers_ms"] = kit.Metric{Value: pr.OpLayersMS, Unit: "ms"}
	}

	tracePath := filepath.Join(env.outDir, "trace-"+w.name+".json")
	data, err := json.Marshal(map[string]any{"workload": w.name, "seed": env.seed, "spans": spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(tracePath, data, 0o644); err != nil {
		return nil, err
	}
	printLayerTable(spans, tracePath)

	res.Summary = summary{Correct: failed == 0 && len(res.Problems) == 0, Attempted: len(raw), Failed: failed, Metrics: ms}
	res.Samples = len(raw)
	return res, nil
}

// printLayerTable prints each layer's self time: its spans' durations
// minus the part their children cover.
func printLayerTable(spans []kit.Span, path string) {
	self := kit.LayerSelf(spans)
	layers := make([]string, 0, len(self))
	var total int64
	for l, ns := range self {
		layers = append(layers, l)
		total += ns
	}
	sort.Slice(layers, func(a, b int) bool { return self[layers[a]] > self[layers[b]] })
	fmt.Printf("span self time by layer (%d spans, written to %s)\n", len(spans), path)
	for _, l := range layers {
		fmt.Printf("  %-14s %12.3f ms %5.1f%%\n", l, float64(self[l])/1e6, 100*float64(self[l])/float64(total))
	}
}

// runProbe writes the workload's inputs out and runs the layer probe on
// them.
func runProbe(env *benchEnv, w workloadDef, in probeInputs) (*kit.ProbeResult, error) {
	spec := kit.ProbeSpec{Workload: w.name, Warm: in.warm, Measure: in.measure,
		DaemonMeasure: in.daemonMeasure, Exponent: env.exponent}
	for i, g := range in.graphs {
		path := filepath.Join(env.runDir, fmt.Sprintf("probe-graph-%d.json", i))
		if err := os.WriteFile(path, g.JSON(), 0o644); err != nil {
			return nil, err
		}
		spec.Graphs = append(spec.Graphs, path)
	}
	specPath := filepath.Join(env.runDir, "probe-spec.json")
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, env.bins.layers, specPath)
	cmd.Env = childEnv(env.outDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layer probe: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var pr kit.ProbeResult
	if err := json.Unmarshal(out, &pr); err != nil {
		return nil, fmt.Errorf("layer probe output: %w", err)
	}
	return &pr, nil
}

// glueProbes measures, from outside, the two ops whose inside the layer
// probe measured: the `misscurve` grid op as a process, and a
// byte-identical hit over HTTP. What the layers do not own of them is
// glue: process start, flags and file reads; the HTTP stack and the
// client.
func glueProbes(env *benchEnv, in probeInputs) (cliMS, hitUS float64, err error) {
	cli := newOrgsGrid(env).(*cliDriver)
	if err := os.WriteFile(cli.graph, append(in.graphs[0].JSON(), '\n'), 0o644); err != nil {
		return 0, 0, err
	}
	// The first call warms the page cache and is dropped.
	cliNorm, err := series(env, kit.ProbeReps+1, func(int) error { _, err := cli.runOp(); return err })
	if err != nil {
		return 0, 0, err
	}

	dd := &daemonDriver{env: env, cpusSeen: map[string]string{}}
	if err := dd.start(warmCacheBytes); err != nil {
		return 0, 0, err
	}
	defer dd.tearDown()
	q := kit.Request{Graph: in.graphs[0], M: kit.DesignM, B: kit.BlockB, Scheduler: "partitioned",
		Warm: kit.DaemonWarm, Measure: in.daemonMeasure, Caps: kit.DaemonCaps}
	body := q.Body()
	if _, err := dd.post(q.Path(), body, "miss"); err != nil {
		return 0, 0, err
	}
	const hits = 400
	hitNorm, err := series(env, kit.ProbeReps, func(int) error {
		for range hits {
			if _, err := dd.post(q.Path(), body, "hit"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return kit.Median(cliNorm[1:]), kit.Median(hitNorm) * 1e3 / hits, nil
}
