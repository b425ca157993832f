package trace

import (
	"fmt"
	"math/bits"
	"slices"

	"streamsched/internal/obs"
)

// OrgSpec selects one cache-organisation family to profile a trace under:
// a set count, the way counts its per-set LRU stacks answer, and an
// optional list of way counts to replay under FIFO replacement. Sets == 1
// is the fully-associative family (way count == total lines).
type OrgSpec struct {
	// Sets is the number of sets the trace is sharded into; must be >= 1.
	Sets int64
	// FIFOWays lists the way counts to replay under FIFO; empty means the
	// family is profiled under LRU only.
	FIFOWays []int64
	// LRUWays lists the way counts the request will evaluate the LRU curve
	// at, in any order, duplicates allowed; the family keeps only the state
	// those answers need, and the spec answers exactly these way counts —
	// asking for another fails loudly. Empty means every capacity, and is
	// allowed only when Sets == 1. It is derived from the evaluation grid
	// (AddPoint, GridSpecs), never tuned by hand.
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
	if s.Sets > 1 && len(s.LRUWays) == 0 {
		return fmt.Errorf("trace: a %d-set organisation must list its LRUWays; only a fully-associative one answers every capacity", s.Sets)
	}
	return nil
}

// answersLRU reports whether the spec's LRU curve answers the way count:
// every one when a fully-associative spec lists none, else exactly the
// listed ones.
func (s OrgSpec) answersLRU(ways int64) bool {
	return len(s.LRUWays) == 0 || slices.Contains(s.LRUWays, ways)
}

// OrgCurves is the profile of one trace under one OrgSpec: the exact LRU
// miss count at its way counts (from the per-set Mattson stacks) and, when
// requested, the exact FIFO miss counts at the replayed way counts.
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
// per-access state off the same replay (the hierarchy profilers' L2 lanes)
// can share a single trace replay instead of replaying once per consumer.
//
// It does only work that can change an answer. Specs with the same set
// count share one family — one set index and one LRU structure per access,
// so a caller's fully-associative spec and a grid's Sets=1 spec cost one
// stack between them. A family whose specs all list their LRUWays keeps
// request-bounded state — flat move-to-front rows below markerWays deep,
// marker lists from there on; only a fully-associative spec that lists
// none makes its family the one unbounded timeline stack (full). Every
// FIFO point of more than one way is one residency bit in the fifoBank; a
// one-way FIFO point is its family's one-way LRU point.
//
// The bounded families, the replicas and the blockTable are an orgStore of
// one lane — OrgLanes' store, fed one stream — so a single stream runs the
// same row kernel, marker lists and bank as the L2 lanes. An access is one
// loop per family kind — rows, marker lists, the full stack — then the bank
// only when it holds replicas.
//
// Families are independent of one another, so only the order within a
// family matters: RecordRun hands a whole run to the full stack, which can
// take it in a step, and walks the run block by block for the rest.
//
// The stack touch that counts an access also decides, for every design
// point at once, whether it missed there: Touch keeps the bucket each family
// counted the access in and the FIFO bank's miss bits, and Missed reads them
// back per point, MissMask for up to 64 points at once — the miss streams a
// next cache level is fed from.
//
// Two stretches of the stream need less than a touch per access, because
// an LRU stack keeps of a stretch only its distinct blocks in last-use
// order (fold.go): a warm-up whose verdicts nobody reads (StartWarmup),
// and every period after the first of a periodic stream, which
// RepeatSteady counts from one recorded period (StartPeriod) — the
// profilers are a schedule.Folder.
type OrgProfilers struct {
	orgStore // one lane
	// full is the unbounded Sets=1 family's stack, numbered after the
	// store's rows and marker lists; nil when there is none.
	full *Profiler
	// per family: the bucket the last Touch counted the access in — a row
	// family's or the full stack's depth, a marker family's zone; 0 = cold
	// or past the bound
	depth []int
	// warm logs a warm-up's uses while the LRU stacks skip it (StartWarmup),
	// period a candidate period's (StartPeriod); each is nil outside its
	// stretch of the stream.
	warm   *useLog
	period *periodLog
}

// markerWays is where the request-bounded families cross over: a family
// whose deepest listed way count is below it keeps flat move-to-front rows,
// whose scan of a few entries beats a marker list's pointer updates; one
// from it on keeps marker lists, whose cost does not grow with the depth.
// BenchmarkBoundedFamilies is the measurement (PERFORMANCE.md's crossover
// tables): rows win at 8 and below, the two split at 16, markers win from
// 32 on.
const markerWays = 32

// orgFamily is what NewOrgProfilers gathers of one distinct set count
// before it builds the family.
type orgFamily struct {
	sets      int64
	ways      []int64 // the LRU way counts its specs list
	unbounded bool    // one of its specs lists none: Sets == 1
	fifo      []int64 // the FIFO way counts its specs replay
}

// kind orders the families: rows, marker lists, the full stack.
func (f *orgFamily) kind() int {
	switch {
	case f.unbounded:
		return 2
	case slices.Max(f.ways) < markerWays:
		return 0
	}
	return 1
}

// orgFamilies validates the specs and gathers one orgFamily per distinct
// set count, ordered by kind, with the family of each spec.
func orgFamilies(specs []OrgSpec) (fams []orgFamily, familyOf []int, err error) {
	at := make(map[int64]int) // set count -> family
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, nil, fmt.Errorf("spec %d: %w", i, err)
		}
		k, ok := at[s.Sets]
		if !ok {
			k = len(fams)
			at[s.Sets] = k
			fams = append(fams, orgFamily{sets: s.Sets})
		}
		f := &fams[k]
		// A family answers the way counts its specs list — one unbounded
		// spec unbounds it — and way 1 when one replays FIFO there.
		f.unbounded = f.unbounded || len(s.LRUWays) == 0
		f.ways = append(f.ways, s.LRUWays...)
		if slices.Contains(s.FIFOWays, 1) {
			f.ways = append(f.ways, 1)
		}
		f.fifo = append(f.fifo, s.FIFOWays...)
	}
	slices.SortStableFunc(fams, func(a, b orgFamily) int { return a.kind() - b.kind() })
	for n, f := range fams {
		at[f.sets] = n
	}
	familyOf = make([]int, len(specs))
	for i, s := range specs {
		familyOf[i] = at[s.Sets]
	}
	return fams, familyOf, nil
}

// NewOrgProfilers validates the specs and builds their profilers.
func NewOrgProfilers(specs []OrgSpec) (*OrgProfilers, error) {
	s, unbounded, err := newOrgStore(specs, 1)
	if err != nil {
		return nil, err
	}
	p := &OrgProfilers{orgStore: s, depth: make([]int, len(s.rows)+len(s.markers))}
	if unbounded {
		p.full = NewProfiler()
		p.depth = append(p.depth, 0)
	}
	return p, nil
}

// OrgPoint names one design point of an OrgProfilers — a spec's family at a
// way count under LRU, or one of its FIFO replicas — resolved once by Point
// so that Missed costs two loads per access. A point depends only on the
// spec list, so it reads any OrgProfilers built from the same specs.
type OrgPoint struct {
	fam, bucket int    // LRU: miss ⇔ depth[fam] == 0 || depth[fam] > bucket
	word        int    // FIFO: the replica's bit in the bank's miss words;
	bit         uint64 // bit == 0 marks an LRU point
}

// Point resolves (spec, ways, policy) to its OrgPoint. ok is false for a
// point the profilers do not evaluate, exactly when OrgCurves.Misses' is:
// a FIFO way count that is not replayed, or an LRU one the spec does not
// list. A one-way FIFO point is the family's one-way LRU point.
func (p *OrgProfilers) Point(spec int, ways int64, fifo bool) (pt OrgPoint, ok bool) {
	fi := p.familyOf[spec]
	if !fifo {
		return OrgPoint{fam: fi, bucket: p.bucket(fi, ways)}, p.specs[spec].answersLRU(ways)
	}
	ok = slices.Contains(p.specs[spec].FIFOWays, ways)
	if ways == 1 {
		return OrgPoint{fam: fi, bucket: p.bucket(fi, 1)}, ok
	}
	r := p.replica[[2]int64{p.specs[spec].Sets, ways}]
	return OrgPoint{word: r / 64, bit: 1 << (r % 64)}, ok
}

// Missed reports whether the block of the last Touch missed at pt. A run
// taken by RecordRun leaves no per-block report. It is the per-access
// oracle for every point: TestOrgProfilersMatchBankOracle holds it
// against a cachesim.Bank after each access, and
// TestOrgProfilersMissMaskMatchesMissed holds the miss masks to it.
func (p *OrgProfilers) Missed(pt OrgPoint) bool {
	if pt.bit != 0 {
		return p.banks[0].missed[pt.word]&pt.bit != 0
	}
	d := p.depth[pt.fam]
	return d == 0 || d > pt.bucket
}

// MaskTable reads the verdicts of up to 64 design points off one Touch as
// a bit mask — bit i says the access missed at point i — with one table
// lookup per family instead of a Missed call per point. Like an OrgPoint it
// depends only on the spec list, so one table reads any OrgProfilers built
// from the same specs.
//
// A bounded family reports the bucket it counted the access in: a row
// family its depth, at most its bound, a marker family its zone, at most
// its way-count list's length; either, 0 for a miss. So each family has one
// slot per bucket, at an offset of its own, and a lookup is an add and a
// load. The unbounded stack can report any depth, so its points have no
// table.
type MaskTable struct {
	fams  []famMasks
	masks []uint64 // every family's slots: the points it missed at
	fifo  []fifoMaskBit
}

// famMasks: a family whose bucket b reads masks[off+b].
type famMasks struct{ fam, off int }

// fifoMaskBit copies a FIFO replica's miss bit to its point's bit.
type fifoMaskBit struct {
	word      int
	bit, lane uint
}

// MaskTable builds the MaskTable of pts, at most 64 points of bounded
// families or FIFO replicas; bit i of a MissMask is pts[i].
func (p *OrgProfilers) MaskTable(pts []OrgPoint) (*MaskTable, error) {
	if len(pts) > 64 {
		return nil, fmt.Errorf("trace: a miss mask holds 64 points, got %d", len(pts))
	}
	t := &MaskTable{}
	var fams []int // in first-seen order
	for i, pt := range pts {
		switch {
		case pt.bit != 0:
			t.fifo = append(t.fifo, fifoMaskBit{word: pt.word, bit: uint(bits.TrailingZeros64(pt.bit)), lane: uint(i)})
		case pt.fam >= len(p.rows)+len(p.markers):
			return nil, fmt.Errorf("trace: point %d is on the unbounded stack, whose depths no mask table holds", i)
		case !slices.Contains(fams, pt.fam):
			fams = append(fams, pt.fam)
		}
	}
	for _, fam := range fams {
		var buckets int // a row family's depths or a marker family's zones, and 0
		if fam < len(p.rows) {
			buckets = p.rows[fam].bound + 1
		} else {
			buckets = len(p.markers[fam-len(p.rows)].lanes[0].ways) + 1
		}
		t.fams = append(t.fams, famMasks{fam: fam, off: len(t.masks)})
		for b := range buckets {
			var m uint64
			for i, pt := range pts {
				if pt.bit == 0 && pt.fam == fam && (b == 0 || pt.bucket < b) {
					m |= 1 << i // the point misses a block counted in bucket b
				}
			}
			t.masks = append(t.masks, m)
		}
	}
	return t, nil
}

// MissMask returns the mask t reads off the last Touch: bit i set when the
// block missed at t's point i. It is branch-free: a family's slot is its
// bucket's, and a FIFO point's bit a shift of its replica's.
func (p *OrgProfilers) MissMask(t *MaskTable) uint64 {
	var mask uint64
	masks, depth := t.masks, p.depth
	for _, f := range t.fams {
		mask |= masks[f.off+depth[f.fam]]
	}
	for _, f := range t.fifo {
		mask |= (p.banks[0].missed[f.word] >> f.bit & 1) << f.lane
	}
	return mask
}

// ResetCounts starts the measured window: histograms and miss counters
// reset, warm stack state kept — rebuilt first, after StartWarmup.
func (p *OrgProfilers) ResetCounts() {
	if p.warm != nil {
		p.endWarmup()
	}
	p.resetCounts()
	if p.full != nil {
		p.full.reset()
	}
}

// Touch feeds one access to every organisation's profilers.
func (p *OrgProfilers) Touch(blk int64) {
	if p.warm != nil {
		p.warmTouch(blk)
		return
	}
	p.touch(blk)
}

// RecordRun feeds accesses to the n blocks base, base+1, …, in that order,
// to every organisation's profilers. It makes OrgProfilers a Recorder: an
// execution machine can profile while it runs, with ResetCounts as its
// window mark.
func (p *OrgProfilers) RecordRun(base, n int64) {
	end := base + n
	switch {
	case p.warm != nil && p.banks != nil:
		for ; base != end; base++ {
			p.warmTouch(base)
		}
	case p.warm != nil:
		for base != end {
			base, _ = p.warm.useRun(base, end)
		}
	case p.full != nil && len(p.depth) == 1 && p.banks == nil:
		p.full.touchRun(base, n, p.period)
	case p.full != nil && p.period == nil:
		full := p.full
		full.touchRun(base, n, nil)
		p.full = nil // the other families take the run block by block
		for ; base != end; base++ {
			p.touch(base)
		}
		p.full = full
	default: // a recorded period needs every family's depth per block
		for ; base != end; base++ {
			p.touch(base)
		}
	}
}

// touch feeds one access to every family, one loop per kind, and to the
// FIFO bank.
func (p *OrgProfilers) touch(blk int64) {
	slot := int32(blk)
	if !p.table.see(blk) {
		slot = p.table.slowSlot(blk)
	}
	p.accesses[0]++
	depth := p.depth
	for i := range p.rows {
		f := &p.rows[i]
		depth[i] = f.touch(int(f.idx.set(blk)), slot, 0) // one lane: the set's row
	}
	depth = depth[len(p.rows):]
	for i := range p.markers {
		f := &p.markers[i]
		depth[i] = f.lanes[0].touch(f.idx.set(blk), slot)
	}
	if p.full != nil {
		depth[len(p.markers)] = p.full.Touch(blk)
	}
	if p.banks != nil {
		p.banks[0].touch(blk, slot)
	}
	if p.period != nil {
		p.period.noteFirst(blk, p.depth)
	}
}

// TimelineOps returns the full stack's timeline operation count, 0 when
// every family is request-bounded.
func (p *OrgProfilers) TimelineOps() int64 {
	if p.full == nil {
		return 0
	}
	return p.full.TimelineOps()
}

// Curves extracts the profiles, in spec order.
func (p *OrgProfilers) Curves() []*OrgCurves {
	var full *AssocCurve
	if p.full != nil {
		mc := p.full.Curve()
		full = &AssocCurve{Sets: 1, Accesses: mc.Accesses, Cold: mc.Cold, curve: mc}
	}
	return p.curves(0, full)
}

// Extract closes a profiling pass: Curves, timed under trace.profile, and
// the pass's totals — the counted accesses, the timeline work they cost,
// and the pass itself — all into reg (nil: none). The time covers curve
// extraction only — the touches happened while the trace was fed.
func (p *OrgProfilers) Extract(reg *obs.Registry) []*OrgCurves {
	stop := reg.Histogram("trace.profile").Start()
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
