package kit

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := Quantile(vs, c.q); !near(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(vs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("Quantile reordered its input: %v", vs)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of nothing should be NaN")
	}
}

func TestTrimmedMean(t *testing.T) {
	vs := []float64{1000, 3, 1, 2, 4, 5, 6, 7, 8, -50}
	if got := TrimmedMean(vs, 0.1); !near(got, 4.5) {
		t.Errorf("TrimmedMean(10%%) = %v, want 4.5", got)
	}
	if got := TrimmedMean([]float64{1, 2, 3}, 0); !near(got, 2) {
		t.Errorf("TrimmedMean(0) = %v, want the mean", got)
	}
	if !math.IsNaN(TrimmedMean(nil, 0.1)) {
		t.Error("TrimmedMean of nothing should be NaN")
	}
}

func TestP90NeedsTenSamplesBeyondIt(t *testing.T) {
	vs := make([]float64, MinSamplesP90-1)
	if _, err := P90(vs); err == nil {
		t.Errorf("P90 accepted %d samples", len(vs))
	}
	vs = make([]float64, MinSamplesP90)
	for i := range vs {
		vs[i] = float64(i)
	}
	got, err := P90(vs)
	if err != nil || !near(got, 89.1) {
		t.Errorf("P90(0..99) = %v, %v; want 89.1", got, err)
	}
}

// running builds readings of a thread that was never kept waiting: wall
// time equals CPU time.
func running(ms ...float64) []Reading {
	rs := make([]Reading, len(ms))
	for i, m := range ms {
		rs[i] = Reading{WallMS: m, CPUMS: m}
	}
	return rs
}

func TestNormalise(t *testing.T) {
	// A host twice as slow as nominal from the second interval on.
	norm, factors, err := Normalise([]float64{100, 150, 200, 200}, running(10, 10, 20, 20, 20), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(factors, []float64{1, 10.0 / 15, 0.5, 0.5}) || !reflect.DeepEqual(norm, []float64{100, 100, 100, 100}) {
		t.Errorf("norm %v factors %v, want all 100 and [1 2/3 0.5 0.5]", norm, factors)
	}
	if _, _, err := Normalise([]float64{1, 2}, running(1, 2), 10, 1); err == nil {
		t.Error("Normalise accepted two sentinel readings for two intervals")
	}
	if got := NormFactor(10.5, 21, 21, 1); !near(got, 0.5) {
		t.Errorf("NormFactor = %v, want 0.5", got)
	}
	// A program the host slows with the square root of what it slows the
	// sentinel by: four times the sentinel, twice the program.
	if got := NormFactor(10, 40, 40, 0.5); !near(got, 0.5) {
		t.Errorf("NormFactor at exponent 0.5 = %v, want 0.5", got)
	}
	if got := NormFactor(10, 40, 40, 0); got != 1 {
		t.Errorf("NormFactor at exponent 0 = %v, want 1 (slowdown left in)", got)
	}
	// A third of the CPU taken away and no slowdown: every program takes
	// half as long again, whatever its exponent.
	for _, exp := range []float64{0, 0.5, 1, 1.3} {
		if got := NormFactor(10, 15, 10, exp); !near(got, 1/1.5) {
			t.Errorf("NormFactor under theft at exponent %v = %v, want 2/3", exp, got)
		}
	}
	// Both at once: 20 ms of CPU in 30 ms of wall.
	if got := NormFactor(10, 30, 20, 0.5); !near(got, 1/1.5*math.Sqrt(0.5)) {
		t.Errorf("NormFactor under theft and slowdown = %v, want (2/3)*sqrt(1/2)", got)
	}
}

func TestNormaliseCPU(t *testing.T) {
	// Half the CPU taken away and a CPU twice as slow: wall time is
	// scaled by a quarter, CPU time, which theft does not stretch, by a
	// half.
	readings := []Reading{{WallMS: 40, CPUMS: 20}, {WallMS: 40, CPUMS: 20}}
	wall, _, err := Normalise([]float64{400}, readings, 10, 1)
	if err != nil || !near(wall[0], 100) {
		t.Errorf("wall %v, %v; want 100", wall, err)
	}
	cpu, err := NormaliseCPU([]float64{200}, readings, 10, 1)
	if err != nil || !near(cpu[0], 100) {
		t.Errorf("cpu %v, %v; want 100", cpu, err)
	}
}

func TestDespike(t *testing.T) {
	got := Despike([]float64{10, 11, 22, 11, 12, 30})
	want := []float64{10.5, 11, 11, 12, 12, 21}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Despike = %v, want %v", got, want)
	}
	// A phase, several readings long, survives.
	phase := []float64{10, 10, 15, 15, 15, 10, 10}
	if got := Despike(phase); !reflect.DeepEqual(got, phase) {
		t.Errorf("Despike flattened a phase: %v", got)
	}
	// Normalise despikes: the one slow reading does not reach the factors.
	_, factors, err := Normalise([]float64{100, 100, 100}, running(10, 10, 20, 10), 10, 1)
	if err != nil || !near(factors[0], 1) || !near(factors[1], 1) {
		t.Errorf("factors %v, %v; want the spike ignored", factors, err)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := Spread(vs); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("Spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got := Spread([]float64{1, 2, 4, 8, 16}); !near(got, (12-1.5)/4) {
		t.Errorf("Spread = %v, want 2.625", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "op", Layer: "e2e", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Layer: "cli", Parent: 0, StartNS: 10, EndNS: 30},
		{Name: "b", Layer: "cli", Parent: 0, StartNS: 20, EndNS: 50}, // overlaps a: counted once
		{Name: "c", Layer: "trace", Parent: 2, StartNS: 25, EndNS: 45},
		{Name: "late", Layer: "cli", Parent: 0, StartNS: 90, EndNS: 120}, // clipped to the parent
	}
	want := []int64{100 - 40 - 10, 20, 10, 20, 30}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
	if got := LayerSelf(spans); got["cli"] != 60 || got["e2e"] != 50 || got["trace"] != 20 {
		t.Errorf("LayerSelf = %v", got)
	}
}

func totalState(g Graph) (t int64) {
	for _, n := range g.Nodes {
		t += n.State
	}
	return t
}

func TestGeneratorDeterministicAndEqualWork(t *testing.T) {
	const block, base, m = 16, 10, 512
	ref := SplitJoin(NewRand(1), "g", 8, base, block)
	if again := SplitJoin(NewRand(1), "g", 8, base, block); !reflect.DeepEqual(ref, again) {
		t.Fatal("same seed, different graph")
	}
	differ := false
	for seed := uint64(1); seed <= 50; seed++ {
		g := SplitJoin(NewRand(seed), "g", 8, base, block)
		if g.MaxState() > m {
			t.Errorf("seed %d: state %d exceeds M=%d", seed, g.MaxState(), m)
		}
		if totalState(g) != totalState(ref) {
			t.Errorf("seed %d: total state %d, seed 1 has %d", seed, totalState(g), totalState(ref))
		}
		if len(g.Nodes) != len(ref.Nodes) || len(g.Edges) != len(ref.Edges) {
			t.Errorf("seed %d: shape differs", seed)
		}
		for _, n := range g.Nodes {
			if n.State >= base*block-block && n.State%block != 0 {
				t.Errorf("seed %d: filter state %d is not whole blocks", seed, n.State)
			}
			if n.State > (base+1)*block {
				t.Errorf("seed %d: state %d more than a block over base", seed, n.State)
			}
		}
		differ = differ || !reflect.DeepEqual(g, ref)
	}
	if !differ {
		t.Error("fifty seeds, one graph")
	}
}

func TestRequestVariantsAreDistinctBytesOfOneRequest(t *testing.T) {
	q := Request{Graph: SplitJoin(NewRand(3), "g", 2, 10, 16), M: 512, B: 16, Scheduler: "partitioned",
		Warm: 8, Measure: 64, Caps: []int64{256, 512}}
	if q.Path() != "/v1/profile" || (Request{}).Path() != "/v1/plan" {
		t.Error("Path does not follow Measure")
	}
	var want map[string]any
	if err := json.Unmarshal(q.Body(), &want); err != nil {
		t.Fatalf("Body is not JSON: %v", err)
	}
	if len(want) != 7 {
		t.Errorf("profile body has %d members, want 7", len(want))
	}
	v := q.Variants()
	seen := map[string]bool{string(q.Body()): true}
	for n := uint32(1); n <= 300; n++ {
		body := v.Body(n)
		if seen[string(body)] {
			t.Fatalf("variant %d repeats an earlier byte string", n)
		}
		seen[string(body)] = true
		var got map[string]any
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("variant %d is not JSON: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("variant %d decodes to a different request", n)
		}
	}
}

// The hand-worked trace: twelve accesses, 0 1 2 3 0 1 4 5 2 3 0 4. With
// two sets, set 0 sees 0 2 0 4 2 0 4 and set 1 sees 1 3 1 5 3.
//
//	2 sets x 2 ways LRU:  set 0 misses 0 2 4 2 0 4 (0 hits once), set 1 misses 1 3 5 3  -> 10
//	2 sets x 2 ways FIFO: set 0 misses 0 2 4 0,                   set 1 misses 1 3 5    -> 7
//	4 sets x 1 way:       set 0 misses 0 4 0 4, set 1 misses 1 5, sets 2 and 3 one each -> 8
//	1 set x 4 ways LRU:   0 1 2 3 miss, 0 1 hit, then 4 5 2 3 0 4 all evict and miss    -> 10
func TestRefSimHandWorkedTrace(t *testing.T) {
	tr := []int64{0, 1, 2, 3, 0, 1, 4, 5, 2, 3, 0, 4}
	for _, c := range []struct {
		sets, ways int64
		fifo       bool
		want       int64
	}{{2, 2, false, 10}, {2, 2, true, 7}, {4, 1, false, 8}, {4, 1, true, 8}, {1, 4, false, 10}, {1, 8, false, 6}} {
		sim := NewRefSim(c.sets, c.ways, c.fifo)
		for _, blk := range tr {
			sim.Access(blk)
		}
		if sim.Misses != c.want {
			t.Errorf("%d sets x %d ways fifo=%v: %d misses, want %d", c.sets, c.ways, c.fifo, sim.Misses, c.want)
		}
	}
}

func TestParseCSV(t *testing.T) {
	text := "organisation,capacity,partitioned-homog\nLRU direct-mapped,256,89.219\n\"FIFO, 2-way\",512,44.867\n"
	header, rows, err := ParseCSV(text)
	if err != nil || len(header) != 3 || len(rows) != 2 {
		t.Fatalf("ParseCSV: %v %v %v", header, rows, err)
	}
	if c, err := Cell(rows, 1, 2); err != nil || c != "44.867" {
		t.Errorf("Cell(1,2) = %q, %v", c, err)
	}
	if rows[1][0] != "FIFO, 2-way" {
		t.Errorf("quoted cell = %q", rows[1][0])
	}
	if _, err := Cell(rows, 2, 0); err == nil {
		t.Error("Cell accepted a row past the end")
	}
	if _, _, err := ParseCSV("only,a,header\n"); err == nil {
		t.Error("ParseCSV accepted a table with no rows")
	}
}

func TestParseSimulate(t *testing.T) {
	text := "graph:        fmradio\nscheduler:    partitioned-homog\n" +
		"cache:        1024 words, block 16, 2-way LRU (designed for M=512)\n" +
		"window:       640 source firings, 640 input items\n" +
		"misses:       14480 (22.6250 per input item)\naccesses:     126080 block accesses, 111600 hits\nbuffer words: 1234\n"
	misses, items, err := ParseSimulate(text)
	if err != nil || misses != 14480 || items != 640 {
		t.Fatalf("ParseSimulate = %d, %d, %v", misses, items, err)
	}
	if got := PerItem(misses, items); got != "22.625" {
		t.Errorf("PerItem = %q, want 22.625", got)
	}
	if got := PerItem(1, 3); got != "0.333" {
		t.Errorf("PerItem(1,3) = %q", got)
	}
	if _, _, err := ParseSimulate("nothing of the kind\n"); err == nil {
		t.Error("ParseSimulate accepted text without its lines")
	}
}

func TestParseDaemonBodies(t *testing.T) {
	body := []byte(`{"engine":"e","key":"abc","graph":"g","input_items":640,"accesses":1000,` +
		`"points":[{"capacity":256,"misses":9,"misses_per_item":0.01},{"capacity":512,"misses":4,"misses_per_item":0.006}]}`)
	r, err := ParseProfileResponse(body)
	if err != nil || r.Key != "abc" || len(r.Points) != 2 || r.Points[1].Misses != 4 || r.InputItems != 640 {
		t.Fatalf("ParseProfileResponse = %+v, %v", r, err)
	}
	if _, err := ParseProfileResponse([]byte(`{"key":"abc","points":[]}`)); err == nil {
		t.Error("ParseProfileResponse accepted a response with no points")
	}
	s, err := ParseStats([]byte(`{"engine":"e","computations":74,"requests":200074,"fastpath":180000,"evictions":3,"errors":0}`))
	if err != nil || s.Computations != 74 || s.Fastpath != 180000 || s.Evictions != 3 {
		t.Fatalf("ParseStats = %+v, %v", s, err)
	}
	if _, err := ParseStats([]byte("ok\n")); err == nil {
		t.Error("ParseStats accepted a non-JSON body")
	}
}

func TestVariantTagSpellsTheNumber(t *testing.T) {
	v := Request{Graph: Graph{Name: "g"}, M: 1, B: 1, Scheduler: "flat"}.Variants()
	if body := v.Body(5); !bytes.HasPrefix(body, []byte("{\t \t")) {
		t.Errorf("variant 5 starts %q, want brace, tab, space, tab", body[:4])
	}
}
