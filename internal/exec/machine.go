// Package exec provides the streaming execution machine: it lays module
// state and channel buffers out in a simulated address space, fires modules
// according to SDF semantics, and charges every state touch and buffer
// read/write to a cache simulator. Schedulers (internal/schedule) drive a
// Machine; the cache statistics afterwards are the cost of the schedule in
// the paper's model. A machine given a Recorder charges no cache: it hands
// each touched range to the recorder, for internal/trace to price later.
package exec

import (
	"errors"
	"fmt"

	"streamsched/internal/buffer"
	"streamsched/internal/cachesim"
	"streamsched/internal/ratio"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// Errors reported by firing operations. Schedulers use these to distinguish
// "waiting for input" from "blocked on output space".
var (
	ErrNotReady = errors.New("exec: insufficient input items")
	ErrNoSpace  = errors.New("exec: insufficient output buffer space")
)

// Config describes a machine instantiation.
type Config struct {
	// Cache is the simulated cache configuration. A machine either charges
	// a cache or records a trace: with a Recorder set only Cache.Block is
	// used (the block granularity of the recording).
	Cache cachesim.Config
	// Caps gives the buffer capacity, in items, of each channel (indexed by
	// EdgeID). Every capacity must be at least the channel's minBuf.
	Caps []int64
	// Values enables item-value tracking (used by correctness tests).
	Values bool
	// CollectOutputs, when positive, records up to this many sink-consumed
	// item values (requires Values).
	CollectOutputs int64
	// TrackLatency enables item-latency accounting: for each item the sink
	// consumes, the number of source items that had entered the graph
	// beyond the ones this item derives from. Rate matching and FIFO order
	// make the progeny mapping monotone, so the i-th sink item derives
	// from the first ceil((i+1)·ratio) source items, where ratio is the
	// steady-state source-items-per-sink-item rate.
	TrackLatency bool
	// Recorder, when non-nil, receives every block-level access the run
	// issues, in order, one run per touched range (a module's state, a
	// channel's buffer window) — the input of the one-pass miss-curve
	// engine (internal/trace). A recording machine simulates nothing: its
	// Cache() is a cachesim.NewTap, which only counts accesses, and
	// SetCache would replace the recording with it.
	Recorder trace.Recorder
}

// Machine is an executable instance of an SDF graph. It is not safe for
// concurrent use.
type Machine struct {
	g     *sdf.Graph
	cache *cachesim.Cache
	bufs  []*buffer.FIFO
	state []cachesim.Region

	fired      []int64
	inputItems int64 // items produced by the source onto its channels
	sinkItems  int64 // items consumed by the sink from its channels
	seq        int64 // next source item value

	values  bool
	outputs []int64
	maxOut  int64

	trackLatency bool
	latRatioNum  int64 // source items per sink item, as a ratio
	latRatioDen  int64
	latSum       int64
	latMax       int64
	latCount     int64

	fireHook func(sdf.NodeID)

	scratch []int64 // reusable pop buffer
}

// NewMachine lays out the graph in a fresh address space and returns a
// machine ready to fire.
func NewMachine(g *sdf.Graph, cfg Config) (*Machine, error) {
	if len(cfg.Caps) != g.NumEdges() {
		return nil, fmt.Errorf("exec: %d buffer capacities for %d edges", len(cfg.Caps), g.NumEdges())
	}
	var cache *cachesim.Cache
	var err error
	if cfg.Recorder != nil {
		cache, err = cachesim.NewTap(cfg.Cache.Block, cfg.Recorder.RecordRun)
	} else {
		cache, err = cachesim.New(cfg.Cache)
	}
	if err != nil {
		return nil, err
	}
	m := &Machine{
		g:      g,
		cache:  cache,
		bufs:   make([]*buffer.FIFO, g.NumEdges()),
		state:  make([]cachesim.Region, g.NumNodes()),
		fired:  make([]int64, g.NumNodes()),
		values: cfg.Values,
		maxOut: cfg.CollectOutputs,
	}
	var arena cachesim.Arena
	blk := cfg.Cache.Block
	for v := 0; v < g.NumNodes(); v++ {
		m.state[v] = arena.AllocBlockAligned(g.Node(sdf.NodeID(v)).State, blk, true)
	}
	var maxRate int64 = 1
	for e := 0; e < g.NumEdges(); e++ {
		cap := cfg.Caps[e]
		if mb := g.MinBuf(sdf.EdgeID(e)); cap < mb {
			return nil, fmt.Errorf("exec: edge %d capacity %d below minBuf %d", e, cap, mb)
		}
		// Large buffers get exclusive blocks; sub-block buffers pack
		// together (a real allocator would do the same), so tiny internal
		// channel buffers do not inflate a component's working set by a
		// factor of B. They never share blocks with module state because
		// all states are allocated first, block-padded.
		var reg cachesim.Region
		if cap >= blk {
			reg = arena.AllocBlockAligned(cap, blk, true)
		} else {
			reg = arena.Alloc(cap, 1)
		}
		f, err := buffer.New(reg, cap, cfg.Values)
		if err != nil {
			return nil, err
		}
		m.bufs[e] = f
		ed := g.Edge(sdf.EdgeID(e))
		if ed.In > maxRate {
			maxRate = ed.In
		}
		if ed.Out > maxRate {
			maxRate = ed.Out
		}
	}
	m.scratch = make([]int64, maxRate)
	if m.maxOut > 0 && !m.values {
		return nil, errors.New("exec: CollectOutputs requires Values")
	}
	if cfg.TrackLatency {
		src, sink := g.Source(), g.Sink()
		var srcItems, sinkItems int64
		for _, e := range g.OutEdges(src) {
			srcItems += g.Repetitions(src) * g.Edge(e).Out
		}
		for _, e := range g.InEdges(sink) {
			sinkItems += g.Repetitions(sink) * g.Edge(e).In
		}
		if src == sink || srcItems == 0 || sinkItems == 0 {
			return nil, errors.New("exec: latency tracking needs distinct source and sink")
		}
		m.trackLatency = true
		m.latRatioNum = srcItems
		m.latRatioDen = sinkItems
	}
	return m, nil
}

// Graph returns the graph the machine executes.
func (m *Machine) Graph() *sdf.Graph { return m.g }

// Cache returns the machine's active cache simulator.
func (m *Machine) Cache() *cachesim.Cache { return m.cache }

// SetCache replaces the machine's active cache. The parallel scheduler uses
// this to charge each component execution to the executing processor's
// private cache; buffer occupancy and module state are shared.
func (m *Machine) SetCache(c *cachesim.Cache) { m.cache = c }

// Buf returns the FIFO of channel e.
func (m *Machine) Buf(e sdf.EdgeID) *buffer.FIFO { return m.bufs[e] }

// Fired returns how many times v has fired.
func (m *Machine) Fired(v sdf.NodeID) int64 { return m.fired[v] }

// SourceFirings returns how many times the source has fired.
func (m *Machine) SourceFirings() int64 { return m.fired[m.g.Source()] }

// InputItems returns the total items the source has produced; the paper's
// per-input amortized costs divide by this.
func (m *Machine) InputItems() int64 { return m.inputItems }

// SinkItems returns the total items the sink has consumed.
func (m *Machine) SinkItems() int64 { return m.sinkItems }

// Outputs returns the recorded sink-consumed values (up to CollectOutputs).
// The slice must not be modified. It is the oracle for value equivalence:
// TestSchedulersAgreeOnOutputs and TestCompiledReplayMatchesDynamic
// compare it across schedules of one graph.
func (m *Machine) Outputs() []int64 { return m.outputs }

// ClassifyLayout registers every memory object with the cache's miss
// classifier: module state as ClassState, channels listed in cross as
// ClassCrossBuffer, remaining channels as ClassInternalBuffer. Subsequent
// misses are attributed per class (Cache.ClassMisses).
func (m *Machine) ClassifyLayout(cross []sdf.EdgeID) {
	isCross := make(map[sdf.EdgeID]bool, len(cross))
	for _, e := range cross {
		isCross[e] = true
	}
	for v := 0; v < m.g.NumNodes(); v++ {
		r := m.state[v]
		m.cache.ClassifyRange(r.Base, r.Size, cachesim.ClassState)
	}
	for e := 0; e < m.g.NumEdges(); e++ {
		r := m.bufs[e].Region()
		cl := cachesim.ClassInternalBuffer
		if isCross[sdf.EdgeID(e)] {
			cl = cachesim.ClassCrossBuffer
		}
		m.cache.ClassifyRange(r.Base, r.Size, cl)
	}
}

// CanFire reports whether v can fire right now: every input channel has the
// requisite items and every output channel has space. It builds no error,
// so the schedulers' `for m.CanFire(v)` loops allocate nothing.
func (m *Machine) CanFire(v sdf.NodeID) bool {
	for _, e := range m.g.InEdges(v) {
		if m.bufs[e].Len() < m.g.Edge(e).In {
			return false
		}
	}
	for _, e := range m.g.OutEdges(v) {
		if m.bufs[e].Space() < m.g.Edge(e).Out {
			return false
		}
	}
	return true
}

// blocked explains why v cannot fire (ErrNotReady or ErrNoSpace): the
// first input short of items, else the first output short of space. Fire
// calls it only once CanFire has refused.
func (m *Machine) blocked(v sdf.NodeID) error {
	for _, e := range m.g.InEdges(v) {
		if m.bufs[e].Len() < m.g.Edge(e).In {
			return fmt.Errorf("%w: node %s edge %d has %d of %d",
				ErrNotReady, m.g.Node(v).Name, e, m.bufs[e].Len(), m.g.Edge(e).In)
		}
	}
	for _, e := range m.g.OutEdges(v) {
		if m.bufs[e].Space() < m.g.Edge(e).Out {
			return fmt.Errorf("%w: node %s edge %d has space %d of %d",
				ErrNoSpace, m.g.Node(v).Name, e, m.bufs[e].Space(), m.g.Edge(e).Out)
		}
	}
	return nil
}

// Fire executes one firing of v: loads v's state (touching every block),
// consumes from each input channel, and produces onto each output channel.
func (m *Machine) Fire(v sdf.NodeID) error {
	if !m.CanFire(v) {
		return m.blocked(v)
	}
	// Load state. The module reads (and may update) its state; the model
	// counts transfers into cache, so one access per block is the charge.
	st := m.state[v]
	m.cache.Access(st.Base, st.Size)

	var acc uint64 = 1469598103934665603 // FNV offset basis
	acc = mix(acc, uint64(v))
	isSink := v == m.g.Sink()
	for _, e := range m.g.InEdges(v) {
		in := m.g.Edge(e).In
		if m.values {
			if err := m.bufs[e].PopN(m.cache, in, m.scratch[:in]); err != nil {
				return err
			}
			for _, val := range m.scratch[:in] {
				acc = mix(acc, uint64(val))
			}
			if isSink && m.maxOut > 0 && int64(len(m.outputs)) < m.maxOut {
				for _, val := range m.scratch[:in] {
					if int64(len(m.outputs)) == m.maxOut {
						break
					}
					m.outputs = append(m.outputs, val)
				}
			}
		} else {
			if err := m.bufs[e].PopN(m.cache, in, nil); err != nil {
				return err
			}
		}
		if isSink {
			if m.trackLatency {
				for j := int64(0); j < in; j++ {
					i := m.sinkItems + j // 0-based global sink item index
					origin := ((i+1)*m.latRatioNum + m.latRatioDen - 1) / m.latRatioDen
					lat := m.inputItems - origin
					if lat < 0 {
						lat = 0
					}
					m.latSum += lat
					m.latCount++
					if lat > m.latMax {
						m.latMax = lat
					}
				}
			}
			m.sinkItems += in
		}
	}
	isSource := v == m.g.Source()
	for _, e := range m.g.OutEdges(v) {
		out := m.g.Edge(e).Out
		if m.values {
			for j := int64(0); j < out; j++ {
				if isSource {
					m.scratch[j] = m.seq
					m.seq++
				} else {
					m.scratch[j] = int64(mix(mix(acc, uint64(e)), uint64(j)))
				}
			}
			if err := m.bufs[e].PushN(m.cache, out, m.scratch[:out]); err != nil {
				return err
			}
		} else {
			if err := m.bufs[e].PushN(m.cache, out, nil); err != nil {
				return err
			}
		}
		if isSource {
			m.inputItems += out
		}
	}
	m.fired[v]++
	if m.fireHook != nil {
		m.fireHook(v)
	}
	return nil
}

// SetFireHook registers a callback invoked after every successful firing.
// The schedule compiler uses it to record firing traces.
func (m *Machine) SetFireHook(hook func(sdf.NodeID)) { m.fireHook = hook }

// FireTimes fires v exactly k times, stopping at the first failure.
func (m *Machine) FireTimes(v sdf.NodeID, k int64) error {
	for i := int64(0); i < k; i++ {
		if err := m.Fire(v); err != nil {
			return fmt.Errorf("exec: firing %d/%d of %s: %w", i+1, k, m.g.Node(v).Name, err)
		}
	}
	return nil
}

// Latency returns the mean and maximum item latency (in source items)
// observed since creation or the last ResetLatency. Requires TrackLatency.
func (m *Machine) Latency() (mean float64, max int64) {
	if m.latCount == 0 {
		return 0, 0
	}
	return float64(m.latSum) / float64(m.latCount), m.latMax
}

// ResetLatency clears the latency accumulators (e.g. after warmup).
func (m *Machine) ResetLatency() {
	m.latSum, m.latMax, m.latCount = 0, 0, 0
}

// AppendState appends the machine's recurrence key to dst and returns the
// extended slice: per channel, its occupancy and its ring offset (items
// pushed mod capacity). With the layout fixed at creation, these decide
// every address a firing can touch, so a runner that decides from
// occupancy alone issues the same block stream from any two points whose
// keys are equal.
func (m *Machine) AppendState(dst []int64) []int64 {
	for _, f := range m.bufs {
		dst = append(dst, f.Len(), f.Pushed()%f.Cap())
	}
	return dst
}

// Counters is a snapshot of a machine's cumulative counts, the base that
// Advance measures a period from.
type Counters struct {
	fired, pushed                                     []int64
	inputItems, sinkItems, latSum, latCount, accesses int64
}

// Counters snapshots the machine's cumulative counts.
func (m *Machine) Counters() Counters {
	c := Counters{
		fired: append([]int64(nil), m.fired...), pushed: make([]int64, len(m.bufs)),
		inputItems: m.inputItems, sinkItems: m.sinkItems,
		latSum: m.latSum, latCount: m.latCount, accesses: m.cache.Stats().Accesses,
	}
	for e, f := range m.bufs {
		c.pushed[e] = f.Pushed()
	}
	return c
}

// Advance accounts for k more repetitions of what the machine did since c
// was taken, without running them: firings, items through every channel,
// source and sink items, the latency sum and count, and the recording
// tap's accesses each grow by k times their change since c. The maximum
// latency stays: a repetition sees the latencies the first one saw.
//
// The caller asserts that the run since c was one period — AppendState
// reads as it did at c — so every repetition would have issued the same
// stream and left every occupancy and ring offset where it is. Each
// channel's change is then whole laps of its ring, which Advance checks.
// It fails, leaving the machine as it was, when a count would overflow
// int64, on a machine that carries item values (their sequence does not
// repeat) and on one that simulates a cache.
func (m *Machine) Advance(c Counters, k int64) error {
	if m.values {
		return errors.New("exec: a machine carrying item values cannot be advanced")
	}
	// Check every count first, so that a refused advance changes nothing;
	// then k times each change fits.
	fits := true
	check := func(now, was int64) {
		_, ok := ratio.AddMul(now, k, now-was)
		fits = fits && ok
	}
	for v := range m.fired {
		check(m.fired[v], c.fired[v])
	}
	for e, f := range m.bufs {
		if moved := f.Pushed() - c.pushed[e]; moved%f.Cap() != 0 {
			return fmt.Errorf("exec: edge %d moved %d items in a period, not whole laps of its %d-item ring", e, moved, f.Cap())
		}
		check(f.Pushed(), c.pushed[e])
	}
	accesses := m.cache.Stats().Accesses
	check(accesses, c.accesses)
	check(m.inputItems, c.inputItems)
	check(m.sinkItems, c.sinkItems)
	check(m.latSum, c.latSum)
	check(m.latCount, c.latCount)
	if !fits {
		return fmt.Errorf("exec: advancing %d periods overflows int64%.0w", k, sdf.ErrUnprocessable)
	}
	if err := m.cache.Skip(k * (accesses - c.accesses)); err != nil {
		return fmt.Errorf("exec: advance: %w", err)
	}
	for v := range m.fired {
		m.fired[v] += k * (m.fired[v] - c.fired[v])
	}
	for e, f := range m.bufs {
		f.Skip(k * (f.Pushed() - c.pushed[e]) / f.Cap())
	}
	m.inputItems += k * (m.inputItems - c.inputItems)
	m.sinkItems += k * (m.sinkItems - c.sinkItems)
	m.latSum += k * (m.latSum - c.latSum)
	m.latCount += k * (m.latCount - c.latCount)
	return nil
}

// CheckConservation verifies the token-count invariants: for every channel,
// items pushed equal firings(from)·out and items popped equal
// firings(to)·in. It returns the first violation found.
func (m *Machine) CheckConservation() error {
	for e := 0; e < m.g.NumEdges(); e++ {
		ed := m.g.Edge(sdf.EdgeID(e))
		f := m.bufs[e]
		if want := m.fired[ed.From] * ed.Out; f.Pushed() != want {
			return fmt.Errorf("exec: edge %d pushed %d, want %d", e, f.Pushed(), want)
		}
		if want := m.fired[ed.To] * ed.In; f.Popped() != want {
			return fmt.Errorf("exec: edge %d popped %d, want %d", e, f.Popped(), want)
		}
		if f.Pushed()-f.Popped() != f.Len() {
			return fmt.Errorf("exec: edge %d occupancy %d != pushed-popped %d", e, f.Len(), f.Pushed()-f.Popped())
		}
	}
	return nil
}

// mix is one FNV-1a step.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}
