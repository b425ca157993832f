package schedule

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// CurveResult is the miss-curve analogue of Result: one recorded run of a
// schedule, profiled into the exact fully-associative LRU miss count for
// every cache capacity at once. Where Measure answers "how many misses at
// this one cache size", MeasureCurve answers it for the whole M axis from
// a single execution.
type CurveResult struct {
	Run
	// Curve maps cache capacity to exact LRU misses for the measured
	// window; Curve.MissesAtCapacity(C, B) equals Measure's Stats.Misses
	// with cachesim.Config{Capacity: C, Block: B}.
	Curve *trace.MissCurve
	// Orgs holds the additional cache-organisation profiles requested via
	// MeasureCurveOrgs, in request order: per OrgSpec, exact set-associative
	// LRU misses at its listed way counts and exact FIFO misses at the
	// replayed way counts, all from the same recorded trace. Empty for
	// MeasureCurve.
	Orgs     []*trace.OrgCurves
	TraceLen int64 // block accesses profiled (warmup + window)
}

// MissesPerItem evaluates the curve at one cache capacity in words,
// normalised by window input items.
func (r *CurveResult) MissesPerItem(capacity, block int64) float64 {
	return r.Curve.MissesPerItem(capacity, block, r.InputItems)
}

// MeasureCurve plans g with s, executes warm source firings, then
// reuse-distance profiles the block accesses of the next (measured) source
// firings as they happen. The schedule is planned once against env;
// the returned curve evaluates that fixed schedule under every cache
// capacity simultaneously, exactly matching what Measure would report at
// each capacity (schedulers never consult the simulated cache's state, so
// the access stream is capacity-independent).
func MeasureCurve(g *sdf.Graph, s Scheduler, env Env, block int64, warm, measured int64) (*CurveResult, error) {
	return MeasureCurveOrgs(g, s, env, block, warm, measured, nil)
}

// MeasureCurveOrgs is MeasureCurve with additional cache organisations:
// alongside the fully-associative LRU curve, the same execution is
// profiled under each requested OrgSpec (per-set Mattson stacks bounded to
// its LRUWays, multiplexed per-set replicas for FIFO) — one
// trace.OrgProfilers, the machine's recorder, drives every organisation
// at once. The result's Orgs slice parallels orgs; each entry exactly
// matches what Measure would report with the corresponding
// cachesim.Config, still from one execution of the schedule.
func MeasureCurveOrgs(g *sdf.Graph, s Scheduler, env Env, block int64, warm, measured int64, orgs []trace.OrgSpec) (*CurveResult, error) {
	if block <= 0 {
		return nil, fmt.Errorf("schedule: block size must be positive, got %d", block)
	}
	// The fully-associative curve is the Sets=1 organisation, so one set of
	// profilers covers it and every requested organisation.
	prof, err := trace.NewOrgProfilers(append([]trace.OrgSpec{{Sets: 1}}, orgs...))
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	var profiles []*trace.OrgCurves
	w := Window{
		Span: "measure",
		// A recording machine simulates no cache (the access stream is
		// capacity-independent); the configuration only fixes the block
		// granularity.
		Cache:    cachesim.Config{Block: block},
		Recorder: prof,
		// Nothing reads the profilers' per-access verdicts.
		Warm: func(*exec.Machine) { prof.StartWarmup() },
		Mark: func(*exec.Machine) { prof.ResetCounts() },
		Profile: func() error {
			profiles = prof.Extract(env.metrics())
			return nil
		},
	}
	if prof.Foldable() {
		w.Folder = prof
	}
	m, run, err := w.Measure(g, s, env, warm, measured)
	if err != nil {
		return nil, err
	}
	return &CurveResult{Run: run, Curve: profiles[0].LRU.Full(), Orgs: profiles[1:], TraceLen: m.Cache().Stats().Accesses}, nil
}
