package trace

import (
	"errors"
	"fmt"
	"slices"

	"streamsched/internal/obs"
	"streamsched/internal/ratio"
)

// OrgSpec selects one cache-organisation family to profile a trace under:
// a set count whose per-set LRU stacks answer every way count at once,
// plus an optional list of way counts to replay under FIFO replacement.
// Sets == 1 is the fully-associative family (way count == total lines).
type OrgSpec struct {
	// Sets is the number of sets the trace is sharded into; must be >= 1.
	Sets int64
	// FIFOWays lists the way counts to replay under FIFO; empty means the
	// family is profiled under LRU only.
	FIFOWays []int64
	// LRUWays lists the way counts the request will evaluate the LRU curve
	// at, in any order, duplicates allowed; the family keeps only the state
	// those answers need, and the spec answers exactly these way counts —
	// asking for another fails loudly. Empty means unbounded: every way
	// count is answered. It is derived from the evaluation grid (AddPoint,
	// GridSpecs), never tuned by hand.
	LRUWays []int64
}

// Validate checks the spec.
func (s OrgSpec) Validate() error {
	if s.Sets < 1 {
		return fmt.Errorf("trace: organisation needs at least one set, got %d", s.Sets)
	}
	for _, w := range s.FIFOWays {
		if w < 1 {
			return fmt.Errorf("trace: FIFO way count must be >= 1, got %d", w)
		}
	}
	for _, w := range s.LRUWays {
		if w < 1 {
			return fmt.Errorf("trace: LRU way count must be >= 1, got %d", w)
		}
	}
	return nil
}

// answersLRU reports whether the spec's LRU curve answers the way count:
// every one when the spec is unbounded, else exactly the listed ones.
func (s OrgSpec) answersLRU(ways int64) bool {
	return len(s.LRUWays) == 0 || slices.Contains(s.LRUWays, ways)
}

// OrgCurves is the profile of one trace under one OrgSpec: the exact LRU
// miss count for every way count (from the per-set Mattson stacks) and,
// when requested, the exact FIFO miss counts at the replayed way counts.
type OrgCurves struct {
	Spec OrgSpec
	LRU  *AssocCurve
	FIFO *FIFOCurve // nil when the spec requested no FIFO way counts
}

// SetsFor returns the set count of a (capacity, block, ways) geometry in
// cachesim's terms — lines = capacity/block split into lines/ways sets —
// with ways == 0 meaning fully associative (one set). It mirrors
// cachesim.Config.Validate's divisibility requirements.
func SetsFor(capacity, block, ways int64) (int64, error) {
	if block <= 0 || capacity <= 0 {
		return 0, fmt.Errorf("trace: capacity and block must be positive, got %d/%d", capacity, block)
	}
	if capacity%block != 0 {
		return 0, fmt.Errorf("trace: capacity %d not a multiple of block %d", capacity, block)
	}
	lines := capacity / block
	if ways == 0 {
		return 1, nil
	}
	if ways < 0 || ways > lines {
		return 0, fmt.Errorf("trace: ways %d out of range for %d lines", ways, lines)
	}
	if lines%ways != 0 {
		return 0, fmt.Errorf("trace: line count %d not a multiple of ways %d", lines, ways)
	}
	return lines / ways, nil
}

// EffectiveWays resolves a ways value to the way count an OrgSpec curve
// is evaluated at: 0 (fully associative) becomes the line count.
func EffectiveWays(capacity, block, ways int64) int64 {
	if ways == 0 {
		return capacity / block
	}
	return ways
}

// AddPoint groups one more design point — sets sets of ways lines each,
// replayed under FIFO too when fifo is set — into specs, which holds one
// OrgSpec per distinct set count (specIdx maps a set count to its index),
// and returns the grown list. Every point's way count joins its spec's
// LRUWays, FIFO points' too, so the profilers keep no state the points
// cannot ask about.
func AddPoint(specs []OrgSpec, specIdx map[int64]int, sets, ways int64, fifo bool) []OrgSpec {
	idx, ok := specIdx[sets]
	if !ok {
		idx = len(specs)
		specIdx[sets] = idx
		specs = append(specs, OrgSpec{Sets: sets})
	}
	specs[idx].LRUWays = append(specs[idx].LRUWays, ways)
	if fifo {
		specs[idx].FIFOWays = append(specs[idx].FIFOWays, ways)
	}
	return specs
}

// GridSpecs groups a (capacity x ways) evaluation grid at the given block
// size into one OrgSpec per distinct set count (AddPoint) — the shape
// ProfileOrgs wants — and returns the set-count -> spec-index map used to
// find each geometry's curves again. A ways value of 0 means fully
// associative. When fifo is true every geometry is also replayed under
// FIFO. Errors mirror SetsFor's geometry rules.
func GridSpecs(caps []int64, block int64, ways []int64, fifo bool) ([]OrgSpec, map[int64]int, error) {
	specIdx := make(map[int64]int)
	var specs []OrgSpec
	for _, c := range caps {
		for _, w := range ways {
			sets, err := SetsFor(c, block, w)
			if err != nil {
				return nil, nil, err
			}
			specs = AddPoint(specs, specIdx, sets, EffectiveWays(c, block, w), fifo)
		}
	}
	return specs, specIdx, nil
}

// Misses evaluates the organisation at one way count under LRU (fifo
// false) or FIFO (fifo true). ok is false when the way count was not
// profiled: not replayed under FIFO, or not in a bounded spec's LRUWays.
func (o *OrgCurves) Misses(ways int64, fifo bool) (n int64, ok bool) {
	if fifo {
		if o.FIFO == nil {
			return 0, false
		}
		return o.FIFO.Misses(ways)
	}
	if !o.Spec.answersLRU(ways) {
		return 0, false
	}
	return o.LRU.Misses(ways), true
}

// OrgProfilers is the incremental form of ProfileOrgs: every
// organisation's profilers behind one Touch, so a caller that drives other
// per-access state off the same replay (the hierarchy profilers' L2 stages)
// can share a single trace replay instead of replaying once per consumer.
//
// It does only work that can change an answer. Specs with the same set
// count share one family — one set index and one LRU structure per access,
// so a caller's fully-associative spec and a grid's Sets=1 spec cost one
// timeline stack between them. A family whose specs all list their
// LRUWays keeps request-bounded state instead of the list→timeline hybrid
// — flat move-to-front rows below markerWays deep, marker lists from there
// on — and every FIFO point of every family is one residency bit in the
// shared fifoBank.
//
// Families are independent of one another, so only the order within a
// family matters: RecordRun hands a whole run to the unbounded Sets=1
// family, whose one stack can take it in a step, and walks the run block
// by block for the rest.
//
// The stack touch that counts an access also decides, for every design
// point at once, whether it missed there: Touch keeps the depth found in
// each family and the FIFO bank's miss bits, and Missed reads them back per
// point — the miss stream a next cache level is fed from.
type OrgProfilers struct {
	specs    []OrgSpec
	familyOf []int // spec -> family
	fams     []orgFamily
	full     int     // the unbounded Sets=1 family, -1 when there is none
	sets     []int64 // per family: the current access's set index
	// per family: the depth the last Touch found (a marker family's: the
	// deepest way count of its zone), 0 = cold or past the bound
	depth []int
	bank  *fifoBank // nil when no family is bounded or replays FIFO
}

// orgFamily is the profiling state of one distinct set count.
type orgFamily struct {
	idx     setIndex
	assoc   *AssocProfiler // unbounded LRU stacks, or
	rows    *boundedStacks // request-bounded rows, or
	markers *markerStacks  // request-bounded marker lists
	replica map[int64]int  // FIFO way count -> bank replica
}

// markerWays is where the request-bounded families cross over: a family
// whose deepest listed way count is below it keeps flat move-to-front rows,
// whose scan of a few entries beats a marker list's pointer updates; one
// from it on keeps marker lists, whose cost does not grow with the depth.
// BenchmarkBoundedFamilies is the measurement (PERFORMANCE.md's crossover
// table): rows win at 16 and below, the two split at 32, markers win from
// 64 on.
const markerWays = 64

// NewOrgProfilers validates the specs and builds their profilers.
func NewOrgProfilers(specs []OrgSpec) (*OrgProfilers, error) {
	p := &OrgProfilers{specs: specs, familyOf: make([]int, len(specs)), full: -1}
	// A family answers the way counts its specs list; one unbounded spec
	// unbounds it (nil).
	lists := make(map[int64][]int64)
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		if w, seen := lists[s.Sets]; len(s.LRUWays) == 0 || seen && w == nil {
			lists[s.Sets] = nil
		} else {
			lists[s.Sets] = append(w, s.LRUWays...)
		}
	}
	famIdx := make(map[int64]int)
	for i, s := range specs {
		fi, ok := famIdx[s.Sets]
		if !ok {
			fi = len(p.fams)
			famIdx[s.Sets] = fi
			f := orgFamily{idx: newSetIndex(s.Sets)}
			switch ways := uniqueWays(lists[s.Sets]); {
			case len(ways) == 0:
				f.assoc = NewAssocProfiler(s.Sets)
				if s.Sets == 1 {
					p.full = fi
				}
			case ways[len(ways)-1] < markerWays:
				f.rows = newBoundedStacks(s.Sets, ways)
			default:
				f.markers = newMarkerStacks(s.Sets, ways)
			}
			p.fams = append(p.fams, f)
		}
		p.familyOf[i] = fi
		f := &p.fams[fi]
		if (f.assoc == nil || len(s.FIFOWays) > 0) && p.bank == nil {
			p.bank = newFIFOBank()
		}
		for _, w := range s.FIFOWays {
			if _, ok := f.replica[w]; !ok {
				if f.replica == nil {
					f.replica = make(map[int64]int)
				}
				f.replica[w] = p.bank.addReplica(fi, s.Sets, w)
			}
		}
	}
	p.sets = make([]int64, len(p.fams))
	p.depth = make([]int, len(p.fams))
	return p, nil
}

// OrgPoint names one design point of an OrgProfilers — a spec's family at a
// way count under LRU, or one of its FIFO replicas — resolved once by Point
// so that Missed costs two loads per access. A point depends only on the
// spec list, so it reads any OrgProfilers built from the same specs.
type OrgPoint struct {
	fam, ways int    // LRU: miss ⇔ depth[fam] == 0 || depth[fam] > ways
	word      int    // FIFO: the replica's bit in the bank's miss words;
	bit       uint64 // bit == 0 marks an LRU point
}

// Point resolves (spec, ways, policy) to its OrgPoint. ok is false for a
// point the profilers do not evaluate, exactly when OrgCurves.Misses' is:
// a FIFO way count that is not replayed, or an LRU one the spec does not
// list.
func (p *OrgProfilers) Point(spec int, ways int64, fifo bool) (pt OrgPoint, ok bool) {
	fi := p.familyOf[spec]
	if fifo {
		r := p.fams[fi].replica[ways]
		return OrgPoint{word: (r + 1) / 64, bit: 1 << ((r + 1) % 64)}, slices.Contains(p.specs[spec].FIFOWays, ways)
	}
	return OrgPoint{fam: fi, ways: int(ways)}, p.specs[spec].answersLRU(ways)
}

// Missed reports whether the block of the last Touch missed at pt. A run
// taken by RecordRun leaves no per-block report.
func (p *OrgProfilers) Missed(pt OrgPoint) bool {
	if pt.bit != 0 {
		return p.bank.missed[pt.word]&pt.bit != 0
	}
	d := p.depth[pt.fam]
	return d == 0 || d > pt.ways
}

// ResetCounts starts the measured window: histograms and miss counters
// reset, warm stack state kept.
func (p *OrgProfilers) ResetCounts() {
	p.eachCount((*depthCounts).reset)
	if p.bank != nil {
		p.bank.resetCounts()
	}
}

// eachCount calls fn on every LRU stack's tally, in one fixed order.
func (p *OrgProfilers) eachCount(fn func(*depthCounts)) {
	for i := range p.fams {
		switch f := &p.fams[i]; {
		case f.rows != nil:
			fn(&f.rows.depthCounts)
		case f.markers != nil:
			fn(&f.markers.depthCounts)
		default:
			for s := range f.assoc.per {
				fn(f.assoc.per[s].counts())
			}
		}
	}
}

// Foldable reports whether Repeat can count repetitions of the stream for
// these profilers: every one is an LRU stack. FIFO is not a stack
// algorithm — its state after a period need not recur — so one FIFO
// replica makes the profilers unfoldable.
func (p *OrgProfilers) Foldable() bool { return p.bank == nil || len(p.bank.reps) == 0 }

// Tally is a snapshot of an OrgProfilers' windowed counts, the base that
// Repeat measures a period from.
type Tally struct {
	counts         []depthCounts
	accesses, cold int64 // the FIFO bank's
}

// Tally snapshots the windowed counts.
func (p *OrgProfilers) Tally() Tally {
	var t Tally
	p.eachCount(func(c *depthCounts) {
		t.counts = append(t.counts, depthCounts{hist: slices.Clone(c.hist), cold: c.cold})
	})
	if p.bank != nil {
		t.accesses, t.cold = p.bank.accesses, p.bank.cold
	}
	return t
}

// Repeat counts k more repetitions of the stream fed since t was taken,
// without being fed them: every depth histogram, cold count and access
// count grows by k times its change since t. Foldable profilers must have
// been fed, before t, one whole period of a periodic stream, and since t
// the next one. That is exact: a period P applied to any LRU stack leaves
// P's blocks on top in order of last use over the rest in its old order,
// and applying P again leaves that stack unchanged — so every repetition
// after the first finds each block at the same depth. This holds per set,
// and for request-bounded stacks, whose rows and marker lists are the top
// of the full ones (a marker zone is a fixed range of depths).
// Repeat fails, changing nothing, when a count would overflow int64.
func (p *OrgProfilers) Repeat(t Tally, k int64) error {
	if !p.Foldable() {
		return errors.New("trace: FIFO replicas cannot be folded")
	}
	// The first pass only checks, so that a refused repeat changes nothing.
	for _, apply := range []bool{false, true} {
		fits := true
		add := func(x *int64, was int64) {
			v, ok := ratio.AddMul(*x, k, *x-was)
			if fits = fits && ok; apply {
				*x = v
			}
		}
		i := 0
		p.eachCount(func(c *depthCounts) {
			was := t.counts[i]
			i++
			for d := range c.hist {
				var w int64
				if d < len(was.hist) {
					w = was.hist[d] // a histogram only grows
				}
				add(&c.hist[d], w)
			}
			add(&c.cold, was.cold)
		})
		if p.bank != nil {
			add(&p.bank.accesses, t.accesses)
			add(&p.bank.cold, t.cold)
		}
		if !fits {
			return fmt.Errorf("trace: repeating the counts %d times overflows int64", k)
		}
	}
	return nil
}

// Touch feeds one access to every organisation's profilers.
func (p *OrgProfilers) Touch(blk int64) { p.touch(blk, -1) }

// RecordRun feeds accesses to the n blocks base, base+1, …, in that order,
// to every organisation's profilers. It makes OrgProfilers a Recorder: an
// execution machine can profile while it runs, with ResetCounts as its
// window mark.
func (p *OrgProfilers) RecordRun(base, n int64) {
	if p.full >= 0 {
		p.fams[p.full].assoc.per[0].touchRun(base, n) // Sets=1: within-set id == block id
		if len(p.fams) == 1 && p.bank == nil {
			return
		}
	}
	for end := base + n; base != end; base++ {
		p.touch(base, p.full)
	}
}

// touch feeds one access to every family but skip, and to the FIFO bank.
func (p *OrgProfilers) touch(blk int64, skip int) {
	var slot int32
	if p.bank != nil {
		slot = p.bank.slot(blk)
	}
	for i := range p.fams {
		f := &p.fams[i]
		set := f.idx.set(blk)
		p.sets[i] = set
		if i == skip {
			continue
		}
		switch {
		case f.rows != nil:
			p.depth[i] = f.rows.touch(set, slot)
		case f.markers != nil:
			p.depth[i] = f.markers.touch(set, slot)
		default:
			p.depth[i] = f.assoc.per[set].touch(f.idx.id(blk, set))
		}
	}
	if p.bank != nil {
		p.bank.touch(slot, p.sets)
	}
}

// TimelineOps returns the total timeline operation count across every
// family's set stacks.
func (p *OrgProfilers) TimelineOps() int64 {
	var ops int64
	for i := range p.fams {
		if a := p.fams[i].assoc; a != nil {
			ops += a.TimelineOps()
		}
	}
	return ops
}

// Curves extracts the profiles, in spec order. Specs of one family share
// its LRU curve.
func (p *OrgProfilers) Curves() []*OrgCurves {
	lru := make([]*AssocCurve, len(p.fams))
	for i := range p.fams {
		switch f := &p.fams[i]; {
		case f.rows != nil:
			lru[i] = f.rows.curve(f.idx.sets, p.bank.cold)
		case f.markers != nil:
			lru[i] = f.markers.curve(f.idx.sets, p.bank.cold)
		default:
			lru[i] = f.assoc.Curve()
		}
	}
	out := make([]*OrgCurves, len(p.specs))
	for j, s := range p.specs {
		f := &p.fams[p.familyOf[j]]
		out[j] = &OrgCurves{Spec: s, LRU: lru[p.familyOf[j]]}
		if len(s.FIFOWays) == 0 {
			continue
		}
		fc := &FIFOCurve{Sets: s.Sets, Accesses: p.bank.accesses, Cold: p.bank.cold, ways: uniqueWays(s.FIFOWays)}
		fc.misses = make([]int64, len(fc.ways))
		for k, w := range fc.ways {
			fc.misses[k] = p.bank.reps[f.replica[w]].misses
		}
		out[j].FIFO = fc
	}
	return out
}

// Extract closes a profiling pass: Curves, timed under trace.profile, and
// the pass's totals — the counted accesses, the timeline work they cost,
// and the pass itself — all into reg (nil: none). The timer covers curve
// extraction only — the touches happened while the trace was fed.
func (p *OrgProfilers) Extract(reg *obs.Registry) []*OrgCurves {
	stop := reg.Timer("trace.profile").Start()
	curves := p.Curves()
	stop()
	if reg != nil {
		var accesses int64
		if len(curves) > 0 {
			accesses = curves[0].LRU.Accesses
		}
		reg.Counter("trace.profile.accesses").Add(accesses)
		reg.Counter("trace.profile.timeline.ops").Add(p.TimelineOps())
		reg.Counter("trace.profile.passes").Add(1)
	}
	return curves
}

// ProfileOrgs replays the log once and feeds every organisation's
// profilers from that single pass, honouring the log's measured window
// (accesses before WindowStart warm the caches but are not counted). The
// returned curves are in spec order and equal what the same OrgProfilers
// report when they are the execution's recorder instead.
func ProfileOrgs(l *Log, specs []OrgSpec) ([]*OrgCurves, error) {
	p, err := NewOrgProfilers(specs)
	if err != nil {
		return nil, err
	}
	l.ForEachRunWindowed(p.ResetCounts, p.RecordRun)
	return p.Extract(l.Metrics()), nil
}

// ProfileOrgsJobs is ProfileOrgs.
//
// Deprecated: jobs and decodeJobs are ignored; the four-argument form is
// kept only because the frozen bench/ module calls it.
func ProfileOrgsJobs(l *Log, specs []OrgSpec, jobs, decodeJobs int) ([]*OrgCurves, error) {
	return ProfileOrgs(l, specs)
}
