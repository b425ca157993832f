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
// "looped schedule" form classical SDF compilers emit. Compile drives any
// Scheduler until its buffer-occupancy state recurs, then factors the
// firing trace into a prologue (executed once, filling the pipeline) and a
// steady-state period (repeated forever). Replaying the compiled schedule
// is behaviourally identical to the dynamic original.

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

// Compile records s's firing decisions on g until the channel-occupancy
// vector recurs at a scheduling boundary, yielding a static schedule.
// Cycle detection starts only after `warm` source firings, so the period
// captures the scheduler's limit cycle rather than a start-up transient;
// everything before the cycle becomes the prologue. maxSource bounds the
// recording; if no recurrence is found within it, Compile fails (no
// scheduler in this package does that for valid inputs).
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
	m, err := probeMachine(g, plan, env)
	if err != nil {
		return nil, err
	}
	var rec recorder
	m.SetFireHook(rec.note)

	occupancy := func() string {
		var sb strings.Builder
		for e := 0; e < g.NumEdges(); e++ {
			fmt.Fprintf(&sb, "%d,", m.Buf(sdf.EdgeID(e)).Len())
		}
		return sb.String()
	}
	// last is the firing count of the last step when the snapshot was
	// taken: the next firing may be the same module's, which grows that
	// step past the boundary.
	type snapshot struct {
		steps  int
		last   int64
		source int64
	}
	seen := map[string]snapshot{}
	if warm == 0 {
		seen[occupancy()] = snapshot{}
	}
	// Recording granularity: the runner is driven in chunks of ~M/2 source
	// firings. The dynamic runners decide from channel occupancy alone, so
	// the recorded execution is a deterministic function of occupancy at
	// chunk boundaries — an occupancy recurrence there is an exact cycle of
	// the recorded dynamics, which is precisely what the replay reproduces.
	// (Chunking can pause a dynamic burst at a boundary, so the recorded
	// policy may differ slightly from an uninterrupted run; outputs are
	// identical either way and the cost stays in the same envelope. A
	// runner with a Plan.Step is paused only between batches, so its
	// recording is the uninterrupted run.)
	chunk := env.M / 2
	if chunk < 1 {
		chunk = 1
	}
	for m.SourceFirings() < maxSource {
		if err := plan.Runner.Run(m, m.SourceFirings()+chunk); err != nil {
			return nil, fmt.Errorf("schedule: compile recording: %w", err)
		}
		if m.SourceFirings() < warm {
			continue
		}
		key := occupancy()
		if snap, ok := seen[key]; ok && m.SourceFirings() > snap.source {
			steps := rec.steps
			prologue := append([]Step(nil), steps[:snap.steps]...)
			period := append([]Step(nil), steps[snap.steps:]...)
			if i := snap.steps - 1; i >= 0 && steps[i].Count > snap.last {
				// The step straddling the cycle's start: its firings after
				// the boundary open every period, not just the first.
				prologue[i].Count = snap.last
				period = append([]Step{{Node: steps[i].Node, Count: steps[i].Count - snap.last}}, period...)
			}
			return &Compiled{
				Caps:            plan.Caps,
				Prologue:        prologue,
				Period:          period,
				SourcePerPeriod: m.SourceFirings() - snap.source,
			}, nil
		}
		snap := snapshot{steps: len(rec.steps), source: m.SourceFirings()}
		if snap.steps > 0 {
			snap.last = rec.steps[snap.steps-1].Count
		}
		seen[key] = snap
	}
	return nil, fmt.Errorf("schedule: no steady-state recurrence within %d source firings", maxSource)
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
