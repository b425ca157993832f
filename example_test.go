package streamsched_test

import (
	"fmt"
	"log"

	"streamsched"
)

// ExampleSimulateCurveOrgs answers a 4-way 1,024-word cache under LRU and
// FIFO from one recorded run; the LRU count is the one Simulate reports for
// the same cache. The spec
// lists the way counts it will be asked about: a set-associative OrgSpec
// must name its LRUWays.
func ExampleSimulateCurveOrgs() {
	b := streamsched.NewGraph("pipe")
	ids := make([]streamsched.NodeID, 12)
	for i := range ids {
		var state int64 = 128
		if i == 0 || i == len(ids)-1 {
			state = 0
		}
		ids[i] = b.AddNode(fmt.Sprintf("stage%d", i), state)
	}
	b.Chain(ids...)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	env := streamsched.Env{M: 256, B: 16}
	s := streamsched.AutoScheduler(g)

	const capacity, ways = 1024, 4
	sets, err := streamsched.CacheSets(capacity, env.B, ways)
	if err != nil {
		log.Fatal(err)
	}
	cr, err := streamsched.SimulateCurveOrgs(g, s, env, env.B, 1000, 10000,
		[]streamsched.OrgSpec{{Sets: sets, LRUWays: []int64{ways}, FIFOWays: []int64{ways}}})
	if err != nil {
		log.Fatal(err)
	}
	lru := cr.Orgs[0].LRU.Misses(ways)
	fifo, _ := cr.Orgs[0].FIFO.Misses(ways)
	res, err := streamsched.Simulate(g, s, env, streamsched.CacheConfig{Capacity: capacity, Block: env.B, Ways: ways}, 1000, 10000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d sets x %d ways: LRU %d misses (Simulate: %d), FIFO %d misses\n", sets, ways, lru, res.Stats.Misses, fifo)
	// Output:
	// 16 sets x 4 ways: LRU 6189 misses (Simulate: 6189), FIFO 4654 misses
}
