//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"streamsched/bench/kit"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds: the length of the
	// timed section on the reference box at the base op counts below.
	defaultSeconds = 20
	// minOps keeps ten samples beyond the 90th percentile.
	minOps = kit.MinSamplesP90
	// warmupOps are untimed and belong to set-up.
	warmupOps = 3
	// setupReps is how often set-up is done per run; setup_s is the
	// median, so one slow phase of the host cannot move it.
	setupReps = 3
	// setupExponent is the exponent set-up is normalised with on every
	// workload: set-up is the same kind of work everywhere (a few engine
	// computations, each through a process start or a cold request), and
	// followed the sentinel with its 0.8th to 1.0th power in the
	// calibration runs.
	setupExponent = 0.85
	// disturbedShare is the share of an op's wall time for which the
	// hypervisor may keep each CPU of the set from the guest (/proc/stat's
	// steal column, which ticks in 10 ms) before the op is run again: an
	// op interrupted for a tenth of its time measures the host, not the
	// program. maxRepeatShare bounds how many ops of a run may be repeated,
	// and so how long a run on a stormy host takes; beyond it disturbed
	// ops count like any other.
	disturbedShare = 0.1
	maxRepeatShare = 0.25
	// opTimeout fails an op that hangs.
	opTimeout = 30 * time.Second
)

// workloadDef is one pinned workload.
type workloadDef struct {
	name    string
	cpus    int // size of the CPU set the driver and every child run on
	baseOps int // timed ops at defaultSeconds
	// exponent is how strongly the workload's op times follow the
	// sentinel's when the host slows down (kit.NormFactor): calibrated on
	// the reference box over 21-26 runs per workload whose sentinel medians
	// spanned 11-19 ms; README.md has the table. The sentinel leans on
	// memory harder than the engine does and the sharded pipeline waits
	// part of the time, so the CLI ops follow it least; daemon-warm,
	// system calls and wake-ups, follows it in proportion.
	exponent float64
	new      func(*benchEnv) driver
}

var workloads = map[string]workloadDef{
	"orgs-grid":   {name: "orgs-grid", cpus: 2, baseOps: 100, exponent: 0.7, new: newOrgsGrid},
	"hier-shared": {name: "hier-shared", cpus: 2, baseOps: 100, exponent: 0.75, new: newHierShared},
	"daemon-cold": {name: "daemon-cold", cpus: 1, baseOps: 160, exponent: 0.85, new: newDaemonCold},
	"daemon-warm": {name: "daemon-warm", cpus: 1, baseOps: 160, exponent: 1, new: newDaemonWarm},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// driver runs one workload's program. All of its methods are called from
// the harness goroutine, never from a pinned sentinel thread.
type driver interface {
	// setUp does everything between the first process start and the first
	// timed op: input generation, the pointwise output oracles, daemon
	// start, health check and prefill, and the warm-up ops.
	setUp() error
	// tearDown stops what setUp started.
	tearDown() error
	// op runs timed op i and checks its output.
	op(i int) error
	// usage reports the CPU seconds the program's processes have consumed
	// so far — never the driver's own.
	usage() (cpuS float64, err error)
	// opPeaksKB lists, for every op run so far, the peak resident set of
	// the program's processes during it, in KB.
	opPeaksKB() []int64
	// verify runs the checks that need the whole run and returns what
	// failed, and whatever counts of the program's own are worth reporting
	// beside the metrics.
	verify() (problems []string, counts map[string]kit.Metric)
	// childCPUs reports each kind of child's Cpus_allowed_list as read
	// from /proc while it ran.
	childCPUs() map[string]string
	// probeInputs returns n graphs for the layer probe — the workload's
	// own first, then equal-work variants — and the workload's windows.
	probeInputs(n int) probeInputs
}

// benchEnv is what a run shares: where things are, what the host is, the
// pinned sentinels.
type benchEnv struct {
	root, outDir, runDir string
	bins                 *binaries
	seed                 uint64
	seconds, ops         int
	exponent             float64 // the workload's, for every time but set-up's
	cpus                 []int
	degraded             bool
	sent                 *kit.Sentinels
	rec                  *spanRecorder // nil unless traced
	laps                 *lapTimer     // set while a set-up is being timed
}

// lapTimer normalises a long interval piecewise: set-up takes a second,
// the host's speed changes within one, so the drivers mark a lap every
// 0.1-0.2 s of set-up work and each lap is scaled by the sentinel
// readings at its own ends. The readings themselves are not part of the
// measured time.
type lapTimer struct {
	sent      *kit.Sentinels
	start     time.Time
	lapsMS    []float64
	sentinels []kit.Reading // one more than lapsMS
}

func (l *lapTimer) lap() {
	l.lapsMS = append(l.lapsMS, float64(time.Since(l.start).Nanoseconds())/1e6)
	l.sentinels = append(l.sentinels, l.sent.Measure())
	l.start = time.Now()
}

// lap ends one lap of the set-up being timed, if one is.
func (e *benchEnv) lap() {
	if e.laps != nil {
		e.laps.lap()
	}
}

// newEnv pins the process (re-executing it on first entry), builds the
// programs — and, for a traced run, the layer probe — and starts the
// sentinels.
func newEnv(root string, w workloadDef, seed uint64, seconds int, traced bool) (*benchEnv, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	cpus, err := kit.PinProcess(w.cpus)
	if err != nil {
		return nil, err
	}
	env := &benchEnv{
		root:     root,
		outDir:   filepath.Join(root, "bench", "out"),
		seed:     seed,
		seconds:  seconds,
		ops:      max(minOps, w.baseOps*seconds/defaultSeconds),
		exponent: w.exponent,
		cpus:     cpus,
		degraded: len(cpus) < w.cpus,
	}
	env.runDir = filepath.Join(env.outDir, "run", w.name)
	if err := os.MkdirAll(env.runDir, 0o755); err != nil {
		return nil, err
	}
	if env.bins, err = buildAll(root, env.outDir, traced); err != nil {
		return nil, err
	}
	if env.sent, err = kit.NewSentinels(cpus); err != nil {
		return nil, err
	}
	return env, nil
}

// normalise scales raw op or layer times by the sentinel readings around
// them, with the workload's exponent.
func (e *benchEnv) normalise(raw []float64, sentinels []kit.Reading) (norm, factors []float64, err error) {
	return kit.Normalise(raw, sentinels, kit.SentinelNominalMS, e.exponent)
}

// stolenMS reads how long the hypervisor has kept the set's CPUs from
// the guest so far.
func (e *benchEnv) stolenMS() float64 {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	ms, _ := kit.StolenMS(string(stat), e.cpus)
	return ms
}

func (e *benchEnv) close() {
	if e.sent != nil {
		e.sent.Close()
	}
}

// summary is the contract's result line.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]kit.Metric `json:"metrics"`
}

// machine records where the numbers were taken.
type machine struct {
	CPUModel  string            `json:"cpu_model"`
	NProc     int               `json:"nproc"`
	CPUSet    []int             `json:"cpu_set"`
	ChildCPUs map[string]string `json:"child_cpus_allowed_list"`
	GoVersion string            `json:"go_version"`
	Kernel    string            `json:"kernel"`
}

// result is everything one run reports; Summary alone goes on the last
// line of standard output, the rest is printed above it and saved under
// bench/out.
type result struct {
	Workload    string                `json:"workload"`
	Seed        uint64                `json:"seed"`
	Seconds     int                   `json:"seconds"`
	Traced      bool                  `json:"traced"`
	Exponent    float64               `json:"norm_exponent"`
	Summary     summary               `json:"summary"`
	Diagnostics map[string]kit.Metric `json:"diagnostics"`
	Samples     int                   `json:"samples"`
	Degraded    bool                  `json:"degraded"`
	Problems    []string              `json:"problems,omitempty"`
	Machine     machine               `json:"machine"`
	RawOpMS     []float64             `json:"raw_op_ms,omitempty"`
	RawCPUMS    []float64             `json:"raw_cpu_ms,omitempty"`
	StolenMS    []float64             `json:"stolen_ms,omitempty"`
	Timed       []int                 `json:"timed_ops,omitempty"`
	Sentinels   []kit.Reading         `json:"sentinels,omitempty"`
}

func (r *result) save(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printMetrics(w io.Writer, title string, ms map[string]kit.Metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: attempted %d failed %d correct %v samples %d degraded %v\n",
		r.Workload, r.Seed, r.Summary.Attempted, r.Summary.Failed, r.Summary.Correct, r.Samples, r.Degraded)
	m := r.Machine
	fmt.Fprintf(w, "machine: %s, nproc %d, cpu set %v, children %v, %s, kernel %s\n",
		m.CPUModel, m.NProc, m.CPUSet, m.ChildCPUs, m.GoVersion, m.Kernel)
	kind := fmt.Sprintf("end-to-end metrics (sentinel-normalised, exponent %.2f, set-up %.2f; gated by BENCHMARK.json)", r.Exponent, setupExponent)
	if r.Traced {
		kind = fmt.Sprintf("per-layer metrics (traced run, times normalised with exponent %.2f; never gated)", r.Exponent)
	}
	printMetrics(w, kind, r.Summary.Metrics)
	printMetrics(w, "diagnostics (never gated)", r.Diagnostics)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

func machineStanza(env *benchEnv, d driver) machine {
	m := machine{CPUSet: env.cpus, ChildCPUs: d.childCPUs(), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			k, v, _ := strings.Cut(line, ":")
			switch strings.TrimSpace(k) {
			case "processor":
				m.NProc++
			case "model name":
				m.CPUModel = strings.TrimSpace(v)
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(data))
	}
	return m
}

// hostMetrics says how noisy the host was and what normalisation did.
func hostMetrics(sentinels []kit.Reading, factors []float64) map[string]kit.Metric {
	walls, stolen := make([]float64, len(sentinels)), make([]float64, len(sentinels))
	for i, r := range sentinels {
		walls[i], stolen[i] = r.WallMS, 1-r.CPUMS/r.WallMS
	}
	return map[string]kit.Metric{
		"host.sentinel_ms_p50":       {Value: kit.Median(walls), Unit: "ms"},
		"host.sentinel_p90_over_p10": {Value: kit.Quantile(walls, 0.9) / kit.Quantile(walls, 0.1), Unit: "ratio"},
		"host.sentinel_stolen_p90":   {Value: kit.Quantile(stolen, 0.9), Unit: "ratio"},
		"host.norm_factor_p50":       {Value: kit.Median(factors), Unit: "ratio"},
	}
}

// timeMS runs f between two clock readings.
func timeMS(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return float64(time.Since(t0).Nanoseconds()) / 1e6, err
}

// setUpTimed does one sentinel-bracketed set-up and returns its raw and
// normalised seconds and the closing sentinel reading.
func setUpTimed(env *benchEnv, d driver) (raw, norm float64, after kit.Reading, err error) {
	l := &lapTimer{sent: env.sent, sentinels: []kit.Reading{env.sent.Measure()}, start: time.Now()}
	env.laps = l
	err = d.setUp()
	l.lap()
	env.laps = nil
	normMS, _, nerr := kit.Normalise(l.lapsMS, l.sentinels, kit.SentinelNominalMS, setupExponent)
	if err == nil {
		err = nerr
	}
	for i, ms := range l.lapsMS {
		raw += ms / 1e3
		norm += normMS[i] / 1e3
	}
	return raw, norm, l.sentinels[len(l.sentinels)-1], err
}

// pick returns the elements of vs at the given indices.
func pick(vs []float64, at []int) []float64 {
	out := make([]float64, len(at))
	for i, j := range at {
		out[i] = vs[j]
	}
	return out
}

// runEndToEnd is the untraced run: setupReps set-ups, then env.ops timed
// ops in a closed loop of one client, each between two sentinel readings.
// An op during which the hypervisor kept the CPUs from the guest for
// disturbedShare of its time or more is run again, maxRepeatShare of the
// ops at most: such bursts last 0.1-1 s, a reading samples 10 ms before
// and 10 ms after the op, and what it misses went straight into
// op_p90_ms. between,
// when set, is called before each op with the number of ops timed so far
// (the noise injector).
func runEndToEnd(env *benchEnv, w workloadDef, between func(i, n int)) (*result, error) {
	d := w.new(env)
	defer d.tearDown() // a second tear-down does nothing
	var setupRaw, setupNorm []float64
	var lastSentinel kit.Reading
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			if err := d.tearDown(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
		raw, norm, after, err := setUpTimed(env, d)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupRaw, setupNorm, lastSentinel = append(setupRaw, raw), append(setupNorm, norm), after
	}

	cpu0, err := d.usage()
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Seed: env.seed, Seconds: env.seconds, Exponent: env.exponent, Degraded: env.degraded}
	// One entry per op run, repeated ones included; timed lists the ops
	// that count.
	var raw, cpuMS, stolenMS []float64
	var timed []int
	sentinels := append(make([]kit.Reading, 0, env.ops+1), lastSentinel)
	failed := 0
	for len(timed) < env.ops {
		i := len(raw)
		if between != nil {
			between(len(timed), env.ops)
		}
		stolen0 := env.stolenMS()
		ms, err := timeMS(func() error { return d.op(i) })
		stolen := (env.stolenMS() - stolen0) / float64(len(env.cpus))
		if err != nil {
			failed++
			if len(res.Problems) < 10 {
				res.Problems = append(res.Problems, fmt.Sprintf("op %d: %v", i, err))
			}
		}
		raw, stolenMS = append(raw, ms), append(stolenMS, stolen)
		sentinels = append(sentinels, env.sent.Measure())
		// Read after the sentinel, so that what a daemon still did after
		// answering is charged to the op that caused it.
		cpu1, err := d.usage()
		if err != nil {
			return nil, err
		}
		cpuMS = append(cpuMS, (cpu1-cpu0)*1e3)
		cpu0 = cpu1
		if repeats := len(raw) - len(timed) - 1; stolen < disturbedShare*ms || repeats >= int(maxRepeatShare*float64(env.ops)) {
			timed = append(timed, i)
		}
	}
	problems, counts := d.verify()
	res.Problems = append(res.Problems, problems...)
	var peaksMB []float64
	for _, kb := range d.opPeaksKB() {
		peaksMB = append(peaksMB, float64(kb)/1024)
	}
	if len(peaksMB) < len(raw) {
		return nil, fmt.Errorf("peak resident set read for %d ops of %d", len(peaksMB), len(raw))
	}
	peaksMB = pick(peaksMB[len(peaksMB)-len(raw):], timed) // the timed ops'
	peakP90, err := kit.P90(peaksMB)
	if err != nil {
		return nil, err
	}

	norm, factors, err := env.normalise(raw, sentinels)
	if err != nil {
		return nil, err
	}
	norm = pick(norm, timed)
	p90, err := kit.P90(norm)
	if err != nil {
		return nil, err
	}
	rawP90, _ := kit.P90(pick(raw, timed))
	// CPU is normalised op by op, like wall time, and averaged with the
	// top and bottom tenth dropped: the daemon's CPU clock ticks in 10 ms,
	// which a median would jump between.
	cpuNorm, err := kit.NormaliseCPU(cpuMS, sentinels, kit.SentinelNominalMS, env.exponent)
	if err != nil {
		return nil, err
	}
	res.Summary = summary{
		Correct:   failed == 0 && len(res.Problems) == 0,
		Attempted: len(raw),
		Failed:    failed,
		Metrics: map[string]kit.Metric{
			"op_p50_ms":     {Value: kit.Median(norm), Unit: "ms"},
			"op_p90_ms":     {Value: p90, Unit: "ms"},
			"cpu_ms_per_op": {Value: kit.TrimmedMean(pick(cpuNorm, timed), 0.1), Unit: "ms"},
			"peak_rss_mb":   {Value: peakP90, Unit: "MB"},
			"setup_s":       {Value: kit.Median(setupNorm), Unit: "s"},
		},
	}
	var stolenSum, rawSum float64
	for i := range raw {
		stolenSum, rawSum = stolenSum+stolenMS[i], rawSum+raw[i]
	}
	res.Diagnostics = map[string]kit.Metric{
		"raw.op_p50_ms":       {Value: kit.Median(pick(raw, timed)), Unit: "ms"},
		"raw.op_p90_ms":       {Value: rawP90, Unit: "ms"},
		"raw.cpu_ms_per_op":   {Value: kit.TrimmedMean(pick(cpuMS, timed), 0), Unit: "ms"},
		"raw.setup_s":         {Value: kit.Median(setupRaw), Unit: "s"},
		"build_s":             {Value: env.bins.buildS, Unit: "s"},
		"raw.peak_rss_max_mb": {Value: kit.Quantile(peaksMB, 1), Unit: "MB"},
		"host.stolen_share":   {Value: stolenSum / rawSum, Unit: "ratio"},
		"host.repeated_ops":   {Value: float64(len(raw) - len(timed)), Unit: "count"},
	}
	maps.Copy(res.Diagnostics, hostMetrics(sentinels, factors))
	maps.Copy(res.Diagnostics, counts)
	res.Samples = len(timed)
	res.Machine = machineStanza(env, d)
	res.RawOpMS, res.RawCPUMS, res.StolenMS, res.Sentinels, res.Timed = raw, cpuMS, stolenMS, sentinels, timed
	return res, nil
}
