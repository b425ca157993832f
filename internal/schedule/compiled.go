package schedule

import (
	"fmt"
	"io"
	"strings"

	"streamsched/internal/exec"
	"streamsched/internal/sdf"
)

// This file compiles dynamic schedules into static looped schedules. The
// paper's runtime strategies (half-full rule, T-batching) are dynamic; a
// deployment typically wants a fixed, auditable firing sequence — the
// "looped schedule" form classical SDF compilers emit. Compile runs any
// Scheduler step by step under the window's recurrence search (recur),
// then factors the firing trace into a prologue (executed once, filling
// the pipeline) and a steady-state period (repeated forever). Every runner
// stops where it resumes exactly, so the trace is the uninterrupted run's,
// and replaying the compiled schedule is that run.

// Step is a run of count consecutive firings of one module.
type Step struct {
	Node  sdf.NodeID
	Count int64
}

// Compiled is a static schedule: buffer capacities, a prologue executed
// once, and a period repeated indefinitely.
type Compiled struct {
	Caps     []int64
	Prologue []Step
	Period   []Step

	// SourcePerPeriod is the number of source firings in one period.
	SourcePerPeriod int64
}

// Firings returns the total firings encoded in a slice of steps.
func Firings(steps []Step) int64 {
	var n int64
	for _, s := range steps {
		n += s.Count
	}
	return n
}

// Compile records s's firing decisions on g until the channels' occupancy
// and the runner's cursor recur at a step boundary, yielding a static
// schedule. Cycle detection starts only after `warm` source firings, so the
// period captures the scheduler's limit cycle rather than a start-up
// transient; everything before the key the search matches becomes the
// prologue. maxSource bounds the recording; if no recurrence is found
// within it, Compile fails. A plan with no step (internal/parallel's) is
// refused.
func Compile(g *sdf.Graph, s Scheduler, env Env, warm, maxSource int64) (*Compiled, error) {
	if maxSource <= 0 {
		return nil, fmt.Errorf("schedule: maxSource must be positive, got %d", maxSource)
	}
	if warm < 0 || warm >= maxSource {
		return nil, fmt.Errorf("schedule: warm %d must be in [0, maxSource)", warm)
	}
	plan, err := s.Prepare(g, env)
	if err != nil {
		return nil, err
	}
	if plan.Step <= 0 {
		return nil, fmt.Errorf("%w: %s plans no step to compile by", ErrUnsupported, s.Name())
	}
	m, err := probeMachine(g, plan, env)
	if err != nil {
		return nil, err
	}
	var rec recorder
	m.SetFireHook(rec.note)
	if err := plan.Runner.Run(m, warm); err != nil {
		return nil, fmt.Errorf("schedule: compile recording: %w", err)
	}
	// At the saved key: how many steps were recorded, and how many firings
	// the last of them had — the next firing may be the same module's,
	// which grows that step past the saved key.
	var steps int
	var last int64
	savedAt, found, err := recur(m, plan, false, func() {
		steps, last = len(rec.steps), 0
		if steps > 0 {
			last = rec.steps[steps-1].Count
		}
	}, func(int64) bool { return m.SourceFirings() < maxSource })
	if err != nil {
		return nil, fmt.Errorf("schedule: compile recording: %w", err)
	}
	if !found {
		return nil, fmt.Errorf("schedule: no steady-state recurrence within %d source firings", maxSource)
	}
	prologue := append([]Step(nil), rec.steps[:steps]...)
	period := append([]Step(nil), rec.steps[steps:]...)
	if i := steps - 1; i >= 0 && rec.steps[i].Count > last {
		// The step straddling the saved key: its firings after the key
		// open every period, not just the first.
		prologue[i].Count = last
		period = append([]Step{{Node: rec.steps[i].Node, Count: rec.steps[i].Count - last}}, period...)
	}
	return &Compiled{
		Caps:            plan.Caps,
		Prologue:        prologue,
		Period:          period,
		SourcePerPeriod: m.SourceFirings() - savedAt,
	}, nil
}

// recorder accumulates a run-length-encoded firing trace.
type recorder struct {
	steps []Step
}

func (r *recorder) note(v sdf.NodeID) {
	if n := len(r.steps); n > 0 && r.steps[n-1].Node == v {
		r.steps[n-1].Count++
		return
	}
	r.steps = append(r.steps, Step{Node: v, Count: 1})
}

// Runner returns a Runner that replays the compiled schedule. It is the
// oracle for the compiled replay: TestCompiledReplayMatchesDynamic holds
// its outputs and misses to the dynamic scheduler it was compiled from.
func (c *Compiled) Runner() Runner { return &compiledRunner{c: c} }

type compiledRunner struct {
	c *Compiled
	// pos tracks progress through the prologue (once) and period (cyclic);
	// a fresh runner starts at the prologue.
	inPrologue bool
	started    bool
	pos        int
}

// Run implements Runner by replaying steps until the source target is met.
func (r *compiledRunner) Run(m *exec.Machine, target int64) error {
	if !r.started {
		r.started = true
		r.inPrologue = len(r.c.Prologue) > 0
		r.pos = 0
	}
	for m.SourceFirings() < target {
		var step Step
		if r.inPrologue {
			step = r.c.Prologue[r.pos]
			r.pos++
			if r.pos == len(r.c.Prologue) {
				r.inPrologue = false
				r.pos = 0
			}
		} else {
			if len(r.c.Period) == 0 {
				return fmt.Errorf("schedule: compiled period is empty")
			}
			step = r.c.Period[r.pos]
			r.pos = (r.pos + 1) % len(r.c.Period)
		}
		if err := m.FireTimes(step.Node, step.Count); err != nil {
			return fmt.Errorf("schedule: compiled replay: %w", err)
		}
	}
	return nil
}

// Write serialises the schedule in a line-oriented text format:
//
//	caps 4 4 512 ...
//	prologue
//	fire 0 x3
//	period
//	fire 1 x512
func (c *Compiled) Write(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("caps")
	for _, cp := range c.Caps {
		fmt.Fprintf(&sb, " %d", cp)
	}
	fmt.Fprintf(&sb, "\nmeta source-per-period %d\n", c.SourcePerPeriod)
	sb.WriteString("prologue\n")
	for _, st := range c.Prologue {
		fmt.Fprintf(&sb, "fire %d x%d\n", st.Node, st.Count)
	}
	sb.WriteString("period\n")
	for _, st := range c.Period {
		fmt.Fprintf(&sb, "fire %d x%d\n", st.Node, st.Count)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
