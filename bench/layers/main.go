//go:build benchlayers

// Command layers is the benchmark's layer probe: the only part of the
// benchmark that imports the engine's packages. It decomposes the
// workload's op into calls on each layer's public functions, times every
// call (pinned by inheritance from the driver, each repetition between
// two sentinel readings), replays the recorded traces through the
// bench's naive simulator and the repo's pointwise oracles, and prints
// one kit.ProbeResult as JSON. The build tag keeps it out of `go build
// ./...`; the driver builds it with -tags benchlayers and reports
// "layers: unavailable" if a later commit's API no longer fits.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"streamsched/bench/kit"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func realMain() error {
	if len(os.Args) != 2 {
		return fmt.Errorf("usage: layers <spec.json>")
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		return err
	}
	var spec kit.ProbeSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if len(spec.Graphs) != kit.ProbeReps+1 {
		return fmt.Errorf("spec: want %d graphs, got %d", kit.ProbeReps+1, len(spec.Graphs))
	}
	cpus, err := kit.Affinity()
	if err != nil {
		return err
	}
	sent, err := kit.NewSentinels(cpus)
	if err != nil {
		return err
	}
	defer sent.Close()
	p := &prober{sent: sent, exponent: spec.Exponent, epoch: time.Now(),
		res: kit.ProbeResult{Metrics: map[string]kit.Metric{}}}
	if err := probeEngine(p, &spec); err != nil {
		return err
	}
	if err := probeService(p, &spec); err != nil {
		return err
	}
	out, err := json.Marshal(p.res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// prober times layer calls and collects what the probe reports.
type prober struct {
	sent     *kit.Sentinels
	exponent float64 // the workload's normalisation exponent
	epoch    time.Time
	opID     int
	res      kit.ProbeResult
}

// rep is one repetition's cost.
type rep struct {
	ms      float64 // wall, normalised
	cpuMS   float64 // process CPU, raw
	rawMS   float64 // wall, raw
	mallocs float64
	allocMB float64
}

func (p *prober) now() int64 { return time.Since(p.epoch).Nanoseconds() }

// span appends a closed span and returns its index.
func (p *prober) span(name, layer string, parent int, start, end int64) int {
	p.res.Spans = append(p.res.Spans, kit.Span{Name: name, Layer: layer, OpID: p.opID, Parent: parent, StartNS: start, EndNS: end})
	return len(p.res.Spans) - 1
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// measure calls f ProbeReps times, each between two sentinel readings, under
// a span of the given name and layer, and returns the repetitions. f
// receives the repetition index and the index of its span, to parent any
// spans of its own.
func (p *prober) measure(name, layer string, f func(i, span int)) []rep {
	reps := make([]rep, kit.ProbeReps)
	raw := make([]float64, kit.ProbeReps)
	var ms runtime.MemStats
	sentinels := []kit.Reading{p.sent.Measure()}
	for i := range reps {
		p.opID++
		runtime.ReadMemStats(&ms)
		mallocs, bytes := ms.Mallocs, ms.TotalAlloc
		id := p.span(name, layer, -1, 0, 0)
		cpu0, t0 := cpuSeconds(), p.now()
		f(i, id)
		t1, cpu1 := p.now(), cpuSeconds()
		p.res.Spans[id].StartNS, p.res.Spans[id].EndNS = t0, t1
		runtime.ReadMemStats(&ms)
		sentinels = append(sentinels, p.sent.Measure())
		raw[i] = float64(t1-t0) / 1e6
		reps[i] = rep{
			rawMS:   raw[i],
			cpuMS:   (cpu1 - cpu0) * 1e3,
			mallocs: float64(ms.Mallocs - mallocs),
			allocMB: float64(ms.TotalAlloc-bytes) / (1 << 20),
		}
	}
	norm, _, _ := kit.Normalise(raw, sentinels, kit.SentinelNominalMS, p.exponent) // the lengths fit by construction
	for i := range reps {
		reps[i].ms = norm[i]
	}
	return reps
}

func medianOf(reps []rep, field func(rep) float64) float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = field(r)
	}
	return kit.Median(vs)
}

func wallMS(r rep) float64 { return r.ms }

// set records one metric.
func (p *prober) set(name string, value float64, unit string) {
	p.res.Metrics[name] = kit.Metric{Value: value, Unit: unit}
}

// problem records a failed cross-check.
func (p *prober) problem(format string, args ...any) {
	if len(p.res.Problems) < 20 {
		p.res.Problems = append(p.res.Problems, fmt.Sprintf(format, args...))
	}
}
