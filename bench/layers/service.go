//go:build benchlayers

package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"streamsched/bench/kit"
	"streamsched/internal/obs"
	"streamsched/internal/plancache"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/internal/server"
)

// handlerCalls is how many handler calls one repetition of a hit probe
// makes.
const handlerCalls = 400

// cacheOps is how many cache operations one repetition of a plancache
// probe makes.
const cacheOps = 4096

// probeService times the daemon's layers without the network: the
// handler through httptest, and the result cache alone.
func probeService(p *prober, spec *kit.ProbeSpec) error {
	var fail error
	check := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}
	// One profile request per graph: graph 0 is prefilled and hit, the
	// rest are computed cold, one per repetition.
	reqs := make([]kit.Request, len(spec.Graphs))
	graphs := make([]*sdf.Graph, len(spec.Graphs))
	for i, path := range spec.Graphs {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &reqs[i].Graph); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if graphs[i], err = sdf.ReadJSON(bytes.NewReader(data)); err != nil {
			return err
		}
		reqs[i].M, reqs[i].B, reqs[i].Scheduler = kit.DesignM, kit.BlockB, "partitioned"
		reqs[i].Warm, reqs[i].Measure, reqs[i].Caps = kit.DaemonWarm, spec.DaemonMeasure, kit.DaemonCaps
	}
	call := func(h http.Handler, q kit.Request, body []byte, wantCache string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, q.Path(), bytes.NewReader(body)))
		if w.Code != http.StatusOK || w.Header().Get("X-Streamsched-Cache") != wantCache {
			check(fmt.Errorf("handler %s: status %d cache %q, want 200 %q", q.Path(), w.Code, w.Header().Get("X-Streamsched-Cache"), wantCache))
		}
	}

	// Cold path, against a cache that holds eight responses: later
	// repetitions evict. The same request's engine time, in process, is
	// taken in the same repetition.
	coldReg := obs.NewRegistry()
	cold := server.New(server.Config{CacheBytes: 8 * 1024, Metrics: coldReg}).Handler()
	var handlerMS, engineMS []float64
	missReps := p.measure("server handler, cold profile", "server", func(i, span int) {
		q := reqs[1+i]
		body := q.Body()
		t0 := p.now()
		call(cold, q, body, "miss")
		t1 := p.now()
		_, err := schedule.MeasureCurve(graphs[1+i], schedulerFor(graphs[1+i]),
			schedule.Env{M: kit.DesignM, B: kit.BlockB, ProfileJobs: 1, DecodeJobs: 1}, kit.BlockB, kit.DaemonWarm, spec.DaemonMeasure)
		check(err)
		t2 := p.now()
		p.span("POST /v1/profile (handler only)", "server", span, t0, t1)
		p.span("schedule.MeasureCurve (same request)", "schedule", span, t1, t2)
		handlerMS = append(handlerMS, float64(t1-t0)/1e6)
		engineMS = append(engineMS, float64(t2-t1)/1e6)
	})
	if fail != nil {
		return fail
	}
	overhead := make([]float64, len(missReps))
	handlerNorm := make([]float64, len(missReps))
	for i, r := range missReps {
		factor := r.ms / r.rawMS
		overhead[i] = (handlerMS[i] - engineMS[i]) * factor * 1e3
		handlerNorm[i] = handlerMS[i] * factor
	}
	p.set("server.miss_overhead_us", kit.Median(overhead), "us")
	coldSnap := coldReg.Snapshot()
	p.set("server.computations_per_miss", float64(coldSnap.Counter("server.computations"))/float64(len(missReps)), "ratio")
	p.set("plancache.evictions", float64(coldSnap.Counter("cache.evictions")), "count")

	// Hit paths, against a cache that holds everything.
	warmReg := obs.NewRegistry()
	warm := server.New(server.Config{CacheBytes: 64 << 20, Metrics: warmReg}).Handler()
	plan := reqs[0]
	plan.Warm, plan.Measure, plan.Caps = 0, 0, nil
	keys := []kit.Request{reqs[0], plan}
	bodies := [][]byte{reqs[0].Body(), plan.Body()}
	variants := []kit.Variants{reqs[0].Variants(), plan.Variants()}
	for k := range keys {
		call(warm, keys[k], bodies[k], "miss")
	}
	fastReps := p.measure("server handler, byte-identical hit x400", "server", func(int, int) {
		for j := 0; j < handlerCalls; j++ {
			call(warm, keys[j%2], bodies[j%2], "hit")
		}
	})
	var fresh uint32
	canonReps := p.measure("server handler, canonicalised hit x400", "server", func(int, int) {
		for j := 0; j < handlerCalls; j++ {
			fresh++
			call(warm, keys[j%2], variants[j%2].Body(fresh), "hit")
		}
	})
	fastUS := medianOf(fastReps, wallMS) * 1e3 / handlerCalls
	canonUS := medianOf(canonReps, wallMS) * 1e3 / handlerCalls
	p.set("server.hit_fast_us", fastUS, "us")
	p.set("server.hit_canonical_us", canonUS, "us")

	// One daemon-warm batch's traffic mix, for the shares.
	base := warmReg.Snapshot()
	for j := 0; j < kit.WarmBatch; j++ {
		if j%kit.WarmFreshEvery == kit.WarmFreshEvery-1 {
			fresh++
			call(warm, keys[j%2], variants[j%2].Body(fresh), "hit")
		} else {
			call(warm, keys[j%2], bodies[j%2], "hit")
		}
	}
	snap := warmReg.Snapshot()
	p.set("server.fastpath_share", float64(snap.CounterDelta(base, "server.fastpath.hits"))/float64(snap.CounterDelta(base, "server.requests")), "ratio")
	p.set("plancache.hit_ratio", float64(snap.Counter("cache.hits"))/float64(snap.Counter("cache.hits")+snap.Counter("cache.misses")), "ratio")
	if fail != nil {
		return fail
	}

	switch spec.Workload {
	case "daemon-cold":
		p.res.OpLayersMS = kit.Median(handlerNorm)
	case "daemon-warm":
		freshN := float64(kit.WarmBatch / kit.WarmFreshEvery)
		p.res.OpLayersMS = ((float64(kit.WarmBatch)-freshN)*fastUS + freshN*canonUS) / 1e3
	}

	// The result cache alone.
	key := func(i int) plancache.Key {
		var k plancache.Key
		binary.LittleEndian.PutUint64(k[:], uint64(i)*0x9E3779B97F4A7C15)
		return k
	}
	value := bytes.Repeat([]byte("x"), 700) // about one profile response
	full := plancache.New(plancache.Config{Budget: 64 << 20, Version: "probe"})
	for i := 0; i < cacheOps; i++ {
		full.Put(key(i), value)
	}
	getReps := p.measure("plancache.Cache.Get x4096", "plancache", func(int, int) {
		for i := 0; i < cacheOps; i++ {
			if _, ok := full.Get(key(i)); !ok {
				check(fmt.Errorf("plancache: key %d missing", i))
			}
		}
	})
	p.set("plancache.get_ns", medianOf(getReps, wallMS)*1e6/cacheOps, "ns")
	next := cacheOps
	putReps := p.measure("plancache.Cache.Put x4096", "plancache", func(int, int) {
		c := plancache.New(plancache.Config{Budget: 64 << 20, Version: "probe"})
		for i := 0; i < cacheOps; i++ {
			c.Put(key(next), value)
			next++
		}
	})
	p.set("plancache.put_ns", medianOf(putReps, wallMS)*1e6/cacheOps, "ns")
	small := plancache.New(plancache.Config{Budget: 256 * 1024, Version: "probe"})
	for i := 0; i < cacheOps; i++ {
		small.Put(key(next), value)
		next++
	}
	evictReps := p.measure("plancache.Cache.Put into a full cache x4096", "plancache", func(int, int) {
		for i := 0; i < cacheOps; i++ {
			small.Put(key(next), value)
			next++
		}
	})
	p.set("plancache.put_evict_ns", medianOf(evictReps, wallMS)*1e6/cacheOps, "ns")

	// The semantic digest of the workload's graph, as the server keys it.
	g := graphs[0]
	digestReps := p.measure("plancache.Digest of the graph x400", "plancache", func(int, int) {
		for range handlerCalls {
			d := plancache.NewDigest()
			d.Str("graph.name", g.Name())
			d.Int("graph.nodes", int64(g.NumNodes()))
			for v := 0; v < g.NumNodes(); v++ {
				n := g.Node(sdf.NodeID(v))
				d.Str("node.name", n.Name)
				d.Int("node.state", n.State)
			}
			d.Int("graph.edges", int64(g.NumEdges()))
			for e := 0; e < g.NumEdges(); e++ {
				ed := g.Edge(sdf.EdgeID(e))
				d.Ints("edge", []int64{int64(ed.From), int64(ed.To), ed.Out, ed.In})
			}
			d.Sum()
		}
	})
	kb := float64(len(reqs[0].Graph.JSON())) / 1024
	p.set("plancache.digest_ns_per_kb", medianOf(digestReps, wallMS)*1e6/handlerCalls/kb, "ns")
	return fail
}
