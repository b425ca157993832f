package schedule

import (
	"fmt"
	"math"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// Run is the header every measured result carries: which schedule ran on
// which graph, what the measured window contained, and what the plan cost
// in buffer memory and item latency. Result, CurveResult, HierResult and
// HierPointResult embed it.
type Run struct {
	Scheduler   string
	Graph       string
	SourceFired int64 // source firings during the measured window
	InputItems  int64 // items produced by the source during the window
	SinkItems   int64
	BufferWords int64 // total buffer capacity the plan allocated
	// MeanLatency and MaxLatency report item latency in source items: how
	// many newer inputs had entered the graph when each output's inputs
	// were finally consumed at the sink. Batching schedules trade latency
	// for misses; experiment E18 maps the tradeoff.
	MeanLatency float64
	MaxLatency  int64
}

// Window is the one measured-window protocol behind every number the
// package reports: plan a schedule, run it for warm source firings to
// reach steady state, mark, run measured more firings, check conservation.
// Its fields are what differs between measurements; everything else —
// validation, the overflow guard, span and stage names, the Run header —
// lives in Measure.
type Window struct {
	// Span names the obs span, suffixed with "[scheduler]".
	Span string
	// Cache configures the machine's simulated cache; with a Recorder set
	// only Cache.Block is used (see exec.Config).
	Cache cachesim.Config
	// Recorder, when non-nil, receives the run's block accesses instead of
	// a simulated cache — a profiler that profiles while the run goes, or
	// a trace.Log for a later replay. The window publishes the accesses it
	// recorded (warm-up and window) as trace.accesses.
	Recorder trace.Recorder
	// Setup, when non-nil, runs once on the fresh machine before warm-up.
	Setup func(m *exec.Machine, plan *Plan)
	// Mark starts the measured window on whatever is counting: it resets
	// the counters or marks the log. Item latency is reset alongside it.
	Mark func(m *exec.Machine)
	// Profile, when non-nil, runs after a conserved window under a
	// "profile" stage — reading the results off whatever counted; its
	// error fails the measurement.
	Profile func() error
}

// Measure runs the window for scheduler s on g and returns the finished
// machine with the window's header. warm <= 0 means no warm-up; measured
// must be positive and the window's end must fit in int64.
func (w Window) Measure(g *sdf.Graph, s Scheduler, env Env, warm, measured int64) (*exec.Machine, Run, error) {
	run := Run{Scheduler: s.Name(), Graph: g.Name()}
	if measured <= 0 {
		return nil, run, fmt.Errorf("schedule: measured window must be positive, got %d", measured)
	}
	sp := env.metrics().StartSpan(w.Span + "[" + run.Scheduler + "]")
	defer sp.End()
	stage := sp.Start("plan")
	plan, err := s.Prepare(g, env)
	stage.End()
	if err != nil {
		return nil, run, fmt.Errorf("schedule: prepare %s: %w", run.Scheduler, err)
	}
	m, err := exec.NewMachine(g, exec.Config{
		Cache:        w.Cache,
		Caps:         plan.Caps,
		TrackLatency: g.Source() != g.Sink(),
		Recorder:     w.Recorder,
	})
	if err != nil {
		return nil, run, fmt.Errorf("schedule: machine for %s: %w", run.Scheduler, err)
	}
	if w.Setup != nil {
		w.Setup(m, plan)
	}
	stage = sp.Start("record")
	defer stage.End()
	if warm > 0 {
		if err := plan.Runner.Run(m, warm); err != nil {
			return nil, run, fmt.Errorf("schedule: warmup %s: %w", run.Scheduler, err)
		}
	}
	w.Mark(m)
	m.ResetLatency()
	// The window ends relative to where warm-up actually stopped: batch
	// schedulers overshoot their targets, so the sum is only known here.
	fired0, items0, sink0 := m.SourceFirings(), m.InputItems(), m.SinkItems()
	if measured > math.MaxInt64-fired0 {
		return nil, run, fmt.Errorf("schedule: measured window %d after %d warm-up firings overflows int64", measured, fired0)
	}
	if err := plan.Runner.Run(m, fired0+measured); err != nil {
		return nil, run, fmt.Errorf("schedule: run %s: %w", run.Scheduler, err)
	}
	if err := m.CheckConservation(); err != nil {
		return nil, run, fmt.Errorf("schedule: %s broke conservation: %w", run.Scheduler, err)
	}
	stage.End()
	if w.Recorder != nil {
		env.metrics().Counter("trace.accesses").Add(m.Cache().Stats().Accesses)
	}
	run.SourceFired = m.SourceFirings() - fired0
	run.InputItems = m.InputItems() - items0
	run.SinkItems = m.SinkItems() - sink0
	run.MeanLatency, run.MaxLatency = m.Latency()
	for _, c := range plan.Caps {
		run.BufferWords += c
	}
	if w.Profile != nil {
		stage = sp.Start("profile")
		err := w.Profile()
		stage.End()
		if err != nil {
			return nil, run, fmt.Errorf("schedule: profile %s: %w", run.Scheduler, err)
		}
	}
	return m, run, nil
}

// sweep measures once per scheduler on a bounded goroutine pool (workers
// <= 0 means GOMAXPROCS). Outcomes are returned in scheduler order; failed
// schedulers carry their error and a nil value.
func sweep[T any](scheds []Scheduler, workers int, measure func(Scheduler) (T, error)) []trace.Outcome[T] {
	jobs := make([]trace.Job[T], len(scheds))
	for i, s := range scheds {
		jobs[i] = trace.Job[T]{Name: s.Name(), Run: func() (T, error) { return measure(s) }}
	}
	return trace.Sweep(jobs, workers)
}
