package main

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
)

// uniformPipeline builds a unit-rate pipeline of n modules (n-2 interior
// modules carrying `state` words each; source and sink are stateless).
func uniformPipeline(name string, n int, state int64) (*sdf.Graph, error) {
	b := sdf.NewBuilder(name)
	ids := make([]sdf.NodeID, n)
	for i := range ids {
		s := state
		if i == 0 || i == n-1 {
			s = 0
		}
		ids[i] = b.AddNode(fmt.Sprintf("m%d", i), s)
	}
	b.Chain(ids...)
	return b.Build()
}

// fanDag builds src -> split -> F workers -> join -> sink, homogeneous,
// with the given per-module state.
func fanDag(name string, fanout int, state int64) (*sdf.Graph, error) {
	b := sdf.NewBuilder(name)
	src := b.AddNode("src", 0)
	split := b.AddNode("split", state)
	join := b.AddNode("join", state)
	sink := b.AddNode("sink", 0)
	b.Connect(src, split, 1, 1)
	for i := 0; i < fanout; i++ {
		w := b.AddNode(fmt.Sprintf("w%d", i), state)
		b.Connect(split, w, 1, 1)
		b.Connect(w, join, 1, 1)
	}
	b.Connect(join, sink, 1, 1)
	return b.Build()
}

// measure is schedule.Measure on a fully-associative LRU cache of
// cacheWords words in env.B-word blocks.
func measure(g *sdf.Graph, s schedule.Scheduler, env schedule.Env, cacheWords int64, warm, measured int64) (*schedule.Result, error) {
	return schedule.Measure(g, s, env, cachesim.Config{Capacity: cacheWords, Block: env.B}, warm, measured)
}

// missesPerFiring returns measured misses per source firing.
func missesPerFiring(r *schedule.Result) float64 {
	if r.SourceFired == 0 {
		return 0
	}
	return float64(r.Stats.Misses) / float64(r.SourceFired)
}
