package schedule

import (
	"fmt"
	"math"
	"slices"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/obs"
	"streamsched/internal/ratio"
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
//
// When the plan has a Step and the window has a Folder, Measure folds the
// steady state: it looks for the first recurrence of the machine's state
// while the Folder records the stretch since the state it compares with —
// one period, once the state recurs. It counts the rest of the window's
// whole periods as steady repetitions of that one, without running them
// and without running a second period, so the cost stops growing with
// measured. Results are exactly the unfolded ones; every other window runs
// every firing. A runner that can stop mid-burst settles after the warm-up
// and after the window (burstRunner), and never at a step inside it.
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
	// Warm, when non-nil, starts the warm-up on whatever is recording, as
	// Mark starts the window: the accesses until Mark only warm its state,
	// so a recorder that can rebuild that state at the mark need not count
	// them one by one.
	Warm func(m *exec.Machine)
	// Mark starts the measured window on whatever is counting: it resets
	// the counters or marks the log. Item latency is reset alongside it.
	Mark func(m *exec.Machine)
	// Folder, when non-nil, is the recorder's folding side: with it a
	// stepped plan's window folds its steady state.
	Folder Folder
	// Profile, when non-nil, runs after a conserved window under a
	// "profile" stage — reading the results off whatever counted; its
	// error fails the measurement.
	Profile func() error
}

// Folder is a recorder that can count whole periods of a periodic stream
// without being fed them (trace.OrgProfilers is one).
type Folder interface {
	// StartPeriod starts recording a candidate period at the current
	// access, dropping any earlier candidate.
	StartPeriod()
	// RepeatSteady ends the candidate period and counts k more repetitions
	// of it as a steady period, one that follows the same period; k == 0
	// only ends it. It is called only when the stream is periodic from the
	// period's start, and it fails, changing nothing, when a count would
	// overflow int64.
	RepeatSteady(k int64) error
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
	limit, err := w.firingLimit(g, plan, env.Budget, warm, measured)
	if err != nil {
		return nil, run, err
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
	if w.Warm != nil {
		w.Warm(m)
	}
	stage = sp.Start("record")
	defer stage.End()
	if warm > 0 {
		if err := settledRun(m, plan, warm); err != nil {
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
	if err := w.run(m, plan, fired0+measured, limit, env.metrics()); err != nil {
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

// run drives m to end source firings. A plan with a step, recorded by a
// Folder, runs under recur's search while the Folder records the stream
// since the saved key; at a recurrence the machine advances by the
// remaining whole periods from the counters saved with the key, the Folder
// counts them as steady periods, and the rest runs for real. The search
// stops by a third of the window, once the saved key is too late for a
// fold (a period of P >= Step firings from it must recur and leave P more
// before the end), and at limit, the source firings the work budget
// allows, past which the rest is refused. Every other window, among them
// internal/parallel's (no step), is one Run call: what the steps amount
// to, by Plan.Step's contract. Either way the window ends settled.
func (w Window) run(m *exec.Machine, plan *Plan, end, limit int64, reg *obs.Registry) error {
	f := w.Folder
	start := m.SourceFirings()
	if !w.folds(plan, end-start) {
		return settledRun(m, plan, end)
	}
	var c exec.Counters
	savedAt, found, err := recur(m, plan, true, func() { c = m.Counters(); f.StartPeriod() }, func(savedAt int64) bool {
		at := m.SourceFirings()
		return at <= end-plan.Step && (end-savedAt)/2 >= plan.Step && at-start < (end-start)/3 && at < limit
	})
	if err != nil {
		return err
	}
	var q int64
	if found {
		// The machine and the Folder each refuse an overflowing fold
		// before changing anything, and the machine counts every access
		// the Folder does, so the machine refuses first.
		if q = (end - m.SourceFirings()) / (m.SourceFirings() - savedAt); q > 0 {
			if err := m.Advance(c, q); err != nil {
				return err
			}
			reg.Counter("schedule.window.folded_periods").Add(q)
		}
	} else if end > limit {
		return fmt.Errorf("%w: no recurrence in the first %d source firings, and the window ends at %d", ErrBudget, m.SourceFirings(), end)
	}
	if err := f.RepeatSteady(q); err != nil {
		return err
	}
	return settledRun(m, plan, end)
}

// recur is the package's one recurrence search, behind the window's fold
// and Compile: Brent's, over recurrenceKey at every step boundary. It runs
// plan on m a step at a time and compares each key with one saved key,
// which moves to the current step whenever the distance to it reaches a
// power of two, so a period of any length is found with one key in memory.
// save runs wherever the key is saved, at the start and at every move;
// look, asked before every step with the saved key's source firings, ends
// the search when false. recur returns the saved key's source firings and
// whether the current key equals it, in which case the run since the saved
// key is one period of a run periodic from there.
func recur(m *exec.Machine, plan *Plan, addresses bool, save func(), look func(savedAt int64) bool) (savedAt int64, found bool, err error) {
	saved, savedAt := recurrenceKey(nil, m, plan.Runner, addresses), m.SourceFirings()
	save()
	var key []int64
	for steps, power := int64(0), int64(1); look(savedAt); {
		if err := plan.Runner.Run(m, m.SourceFirings()+plan.Step); err != nil {
			return 0, false, err
		}
		if key = recurrenceKey(key[:0], m, plan.Runner, addresses); slices.Equal(key, saved) {
			return savedAt, true, nil
		}
		if steps++; steps == power {
			saved, key, savedAt = key, saved, m.SourceFirings()
			save()
			steps, power = 0, 2*power
		}
	}
	return savedAt, false, nil
}

// recurrenceKey appends m's recurrence key under runner r to dst: each
// channel's occupancy and r's cursor (burstRunner), which decide every
// firing, or with addresses set the machine's whole state
// (exec.Machine.AppendState), whose ring offsets decide every address too
// but can take many periods of firings to return.
func recurrenceKey(dst []int64, m *exec.Machine, r Runner, addresses bool) []int64 {
	if addresses {
		dst = m.AppendState(dst)
	} else {
		for e := range m.Graph().NumEdges() {
			dst = append(dst, m.Buf(sdf.EdgeID(e)).Len())
		}
	}
	if b, ok := r.(burstRunner); ok {
		dst = b.appendCursor(dst)
	}
	return dst
}

// settledRun runs plan to target and then settles its runner, if it is a
// burstRunner: the end of a warm-up, a window or a buffer probe.
func settledRun(m *exec.Machine, plan *Plan, target int64) error {
	if err := plan.Runner.Run(m, target); err != nil {
		return err
	}
	if b, ok := plan.Runner.(burstRunner); ok {
		return b.settle(m)
	}
	return nil
}

// folds reports whether a window of measured source firings under plan
// looks for a recurrence to fold: its plan has a step, it has a Folder,
// and the window holds at least two steps.
func (w Window) folds(plan *Plan, measured int64) bool {
	return w.Folder != nil && plan.Step > 0 && measured/2 >= plan.Step
}

// firingLimit turns budget, a ceiling on block accesses, into a ceiling on
// the source firings the machine may reach, at accessesPerFiring's
// estimate; no budget is no ceiling. It tests the ceiling once, now that
// the plan says whether the window folds: a window that cannot runs warm +
// measured firings, and one that can runs its warm-up and then looks for a
// recurrence only below the ceiling (run). The warm-up counts in whole
// steps (a batch plan's runs to the next step boundary, and
// internal/parallel's stepless plan counts steps of one firing), and a
// step past the ceiling is refused whatever the window.
func (w Window) firingLimit(g *sdf.Graph, plan *Plan, budget, warm, measured int64) (int64, error) {
	if budget <= 0 {
		return math.MaxInt64, nil
	}
	per := accessesPerFiring(g, w.Cache.Block)
	limit, step := budget/per, max(plan.Step, 1)
	if step > limit {
		return 0, fmt.Errorf("%w: a step of %d source firings at ~%d block accesses each, against a budget of %d accesses",
			ErrBudget, step, per, budget)
	}
	warm = max(warm, 0)
	steps := warm/step + min(warm%step, 1) // the warm-up's whole steps
	if steps > limit/step || (!w.folds(plan, measured) && measured > limit-steps*step) {
		return 0, fmt.Errorf("%w: %d warm-up and %d measured source firings at ~%d block accesses each, against a budget of %d accesses",
			ErrBudget, warm, measured, per, budget)
	}
	return limit, nil
}

// accessesPerFiring estimates the block accesses a schedule of g makes
// per source firing: in a period every module firing touches its state
// and the items it pops and pushes, each in whole blocks, and the period's
// sum is divided among the source's firings, rounded up. It is at least 1
// and saturates at math.MaxInt64.
func accessesPerFiring(g *sdf.Graph, block int64) int64 {
	block = max(block, 1)
	var period int64
	ok := true
	add := func(reps, words int64) {
		if ok {
			period, ok = ratio.AddMul(period, reps, words/block+min(words%block, 1))
		}
	}
	for v := range g.NumNodes() {
		id := sdf.NodeID(v)
		add(g.Repetitions(id), g.Node(id).State)
	}
	for e := range g.NumEdges() {
		ed := g.Edge(sdf.EdgeID(e))
		add(g.Repetitions(ed.From), ed.Out)
		add(g.Repetitions(ed.To), ed.In)
	}
	if !ok {
		return math.MaxInt64
	}
	src := g.Repetitions(g.Source())
	return max(1, period/src+min(period%src, 1))
}

// Sweep measures once per scheduler on the trace.Sweep pool, one worker
// per CPU up to one per scheduler, and returns the results in scheduler
// order. Every scheduler runs even when another fails; the error is the
// first failure in scheduler order, named "<scheduler>: <err>".
func Sweep[T any](scheds []Scheduler, measure func(Scheduler) (T, error)) ([]T, error) {
	jobs := make([]trace.Job[T], len(scheds))
	for i, s := range scheds {
		jobs[i] = trace.Job[T]{Name: s.Name(), Run: func() (T, error) { return measure(s) }}
	}
	out := trace.Sweep(jobs, 0)
	results := make([]T, len(out))
	for i, o := range out {
		if o.Err != nil {
			return nil, fmt.Errorf("%s: %w", o.Name, o.Err)
		}
		results[i] = o.Value
	}
	return results, nil
}
