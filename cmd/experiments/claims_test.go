package main

import (
	"fmt"
	"testing"
)

// TestPaperClaims holds experiments to what the paper says their figures
// show. Each row names the experiment, the paper's statement, and a
// predicate over the table the experiment prints, built by the same
// function its run uses, so the claim and the printed cells cannot drift.
// The predicates are written from the statements: they ask for the shape
// (growth, flatness, scaling) with slack a constant factor wide, not for
// today's cells.
func TestPaperClaims(t *testing.T) {
	claims := []struct {
		id, statement string
		holds         func() error
	}{
		{"E1", "Fig 1: until the graph fits in cache, a baseline that reloads every module's state each item (flat-topo, demand-driven) pays about totalState/B misses per item, and the partitioned schedule stays within a constant factor of its partition's bandwidth(P)/B at every M", func() error {
			e1, err := buildE1(false)
			if err != nil {
				return err
			}
			return e1Claim(e1)
		}},
		{"E2", "Fig 2: on a pipeline that does not fit in cache, a baseline reloads module state every item, so its misses/item grow linearly with pipeline length, while the partitioned schedule's stay flat", func() error {
			e2, err := buildE2(false)
			if err != nil {
				return err
			}
			return e2Claim(e2)
		}},
		{"E5", "Fig 4: the partitioned schedule designed for M needs only a constant-factor cache augmentation: its misses/item do not rise as the augmentation c grows, and from c = 2 on they are within a constant factor of its partition's bandwidth(P)/B and beat flat-topo on a cache of M", func() error {
			e5, err := buildE5(false)
			if err != nil {
				return err
			}
			return e5Claim(e5)
		}},
		{"E6", "Tab 2: on the workload suite, the partitioned schedule beats the flat-topo and scaled baselines on every workload whose total state exceeds the cache", func() error {
			e6, err := buildE6(false)
			if err != nil {
				return err
			}
			return e6Claim(e6)
		}},
		{"E8", "Fig 6: the partitioned schedule moves whole blocks, so its misses/item scale as 1/B: misses/item x B stays near constant across B", func() error {
			e8, err := buildE8(false)
			if err != nil {
				return err
			}
			return e8Claim(e8)
		}},
		{"E10", "Fig 7: the scaled schedule's misses per item fall with the scaling factor s as state loads amortise, then saturate at a floor of about 2|edges|/B once every channel streams through memory, and the partitioned schedule designed for M/4 sits below that floor", func() error {
			e10, err := buildE10(false)
			if err != nil {
				return err
			}
			return e10Claim(e10)
		}},
	}
	for _, c := range claims {
		t.Run(c.id, func(t *testing.T) {
			if err := c.holds(); err != nil {
				t.Errorf("%s: %s\ndoes not hold: %v", c.id, c.statement, err)
			}
		})
	}
}

// e2Claim: from one length to the next, flat-topo's misses/item grow at
// least half as fast as the total state (linear growth, slack 2), and the
// partitioned misses/item over all lengths stay within a factor of 2 of
// each other, while the total state grows several times over.
func e2Claim(e2 *e2Table) error {
	if len(e2.rows) < 3 {
		return fmt.Errorf("%d lengths, want at least 3", len(e2.rows))
	}
	lo, hi := e2.rows[0].partitioned, e2.rows[0].partitioned
	for i, r := range e2.rows[1:] {
		prev := e2.rows[i]
		stateGrowth, flatGrowth := float64(r.totalState)/float64(prev.totalState), r.flat/prev.flat
		if flatGrowth < stateGrowth/2 {
			return fmt.Errorf("flat-topo %.3g -> %.3g misses/item from %d to %d modules: x%.2f, state grew x%.2f",
				prev.flat, r.flat, prev.modules, r.modules, flatGrowth, stateGrowth)
		}
		lo, hi = min(lo, r.partitioned), max(hi, r.partitioned)
	}
	if hi > 2*lo {
		return fmt.Errorf("partitioned misses/item range %.3g-%.3g over %d-%d modules: not flat", lo, hi, e2.rows[0].modules, e2.rows[len(e2.rows)-1].modules)
	}
	return nil
}

// e5Claim: the partitioned misses/item never rise from one augmentation
// factor to the next (a larger LRU cache on the same schedule cannot miss
// more), and at every c >= 2 they are at most 4 x bandwidth(P)/B of the
// partition designed for M (Theorem 5's constant, with slack) and below
// flat-topo's misses/item on a cache of M.
func e5Claim(e5 *e5Table) error {
	if len(e5.rows) < 3 {
		return fmt.Errorf("%d augmentation factors, want at least 3", len(e5.rows))
	}
	for i, r := range e5.rows {
		if prev := e5.rows[max(i-1, 0)]; r.partitioned > prev.partitioned {
			return fmt.Errorf("partitioned %.3g misses/item at c=%d, then %.3g at c=%d: rises along the sweep", prev.partitioned, prev.c, r.partitioned, r.c)
		}
		if r.c < 2 {
			continue
		}
		if r.partitioned > 4*e5.bound {
			return fmt.Errorf("partitioned %.3g misses/item at c=%d, more than 4 x bandwidth(P)/B = %.3g", r.partitioned, r.c, e5.bound)
		}
		if r.partitioned >= e5.flat {
			return fmt.Errorf("partitioned %.3g misses/item at c=%d, flat-topo %.3g at c=1: no win", r.partitioned, r.c, e5.flat)
		}
	}
	return nil
}

// e6Claim: on every workload whose total state exceeds the cache (2M
// words), the partitioned misses/item are below both flat-topo's and
// scaled(s=4)'s, and at least one workload exceeds the cache.
func e6Claim(e6 *e6Table) error {
	over := 0
	for _, r := range e6.rows {
		if r.totalState <= 2*e6.m {
			continue
		}
		over++
		if r.partitioned >= r.flat || r.partitioned >= r.scaled {
			return fmt.Errorf("%s (total state %d, cache %d): partitioned %.3g misses/item, flat-topo %.3g, scaled %.3g: no win",
				r.name, r.totalState, 2*e6.m, r.partitioned, r.flat, r.scaled)
		}
	}
	if over == 0 {
		return fmt.Errorf("no workload's total state exceeds the cache of %d words", 2*e6.m)
	}
	return nil
}

// e8Claim: the partitioned misses/item x B stay within a factor of 2 of
// each other over the whole sweep (B spans a factor of 16, so no 1/B
// scaling would read 16x), and misses/item fall as B grows.
func e8Claim(e8 *e8Table) error {
	if len(e8.rows) < 3 {
		return fmt.Errorf("%d block sizes, want at least 3", len(e8.rows))
	}
	first := e8.rows[0]
	lo, hi := first.partitioned*float64(first.b), first.partitioned*float64(first.b)
	for i, r := range e8.rows[1:] {
		if prev := e8.rows[i]; r.partitioned >= prev.partitioned {
			return fmt.Errorf("partitioned misses/item %.3g at B=%d, %.3g at B=%d: not falling", prev.partitioned, prev.b, r.partitioned, r.b)
		}
		lo, hi = min(lo, r.partitioned*float64(r.b)), max(hi, r.partitioned*float64(r.b))
	}
	if hi > 2*lo {
		return fmt.Errorf("partitioned misses/item x B range %.3g-%.3g over B=%d-%d: not 1/B", lo, hi, first.b, e8.rows[len(e8.rows)-1].b)
	}
	return nil
}

// e1Claim: while the cache (2M words) holds no more than the total state,
// flat-topo and demand-driven read within a factor of 2 of totalState/B
// misses per item; once it holds twice the total state they read below a
// quarter of it; and at every M the partitioned misses per source firing
// are at most 4 x bandwidth(P)/B of the partition designed for that M
// (Theorem 5's constant, with slack), while bandwidth(P)/B itself spans
// more than a factor of 4 over the sweep, so a partitioned column that
// did not follow its partition would show.
func e1Claim(e1 *e1Table) error {
	if len(e1.rows) < 3 {
		return fmt.Errorf("%d cache sizes, want at least 3", len(e1.rows))
	}
	perItem := float64(e1.totalState) / 16
	fits := false
	for _, r := range e1.rows {
		cache := 2 * r.m
		for _, c := range []struct {
			name string
			col  int
		}{{"flat-topo", e1Flat}, {"demand-driven", e1Demand}} {
			v := r.misses[c.col]
			if cache <= e1.totalState && (v < perItem/2 || v > 2*perItem) {
				return fmt.Errorf("%s %.3g misses/item at M=%d (cache %d words, total state %d): not about totalState/B = %.3g", c.name, v, r.m, cache, e1.totalState, perItem)
			}
			if cache >= 2*e1.totalState {
				fits = true
				if v >= perItem/4 {
					return fmt.Errorf("%s %.3g misses/item at M=%d, where the cache holds twice the total state: still about totalState/B = %.3g", c.name, v, r.m, perItem)
				}
			}
		}
		if r.partFiring > 4*r.bound {
			return fmt.Errorf("partitioned %.3g misses/firing at M=%d, more than 4 x bandwidth(P)/B = %.3g", r.partFiring, r.m, r.bound)
		}
	}
	if !fits {
		return fmt.Errorf("no M at which the cache holds twice the total state %d", e1.totalState)
	}
	if first, last := e1.rows[0].bound, e1.rows[len(e1.rows)-1].bound; first <= 4*last {
		return fmt.Errorf("bandwidth(P)/B %.3g at M=%d and %.3g at M=%d: the sweep does not move the partition", first, e1.rows[0].m, last, e1.rows[len(e1.rows)-1].m)
	}
	return nil
}

// e10Claim: with floor = 2|edges|/B, the scaled misses per item start more
// than 4 x the floor (there is a fall to see), fall from each s to the
// next while they are above 2 x the floor, never read below half the
// floor, and end the sweep inside [floor/2, 2 x floor] for its last two
// factors (saturated); the partitioned reference reads below the lowest
// scaled row.
func e10Claim(e10 *e10Table) error {
	if len(e10.rows) < 4 {
		return fmt.Errorf("%d scaling factors, want at least 4", len(e10.rows))
	}
	floor := 2 * float64(e10.edges) / 16
	if first := e10.rows[0]; first.scaled <= 4*floor {
		return fmt.Errorf("scaled %.3g misses/item at s=%d: already near the floor %.3g, no fall to see", first.scaled, first.s, floor)
	}
	lowest := e10.rows[0].scaled
	for i, r := range e10.rows {
		if r.scaled < floor/2 {
			return fmt.Errorf("scaled %.3g misses/item at s=%d: below half the floor %.3g", r.scaled, r.s, floor)
		}
		if prev := e10.rows[max(i-1, 0)]; i > 0 && prev.scaled > 2*floor && r.scaled >= prev.scaled {
			return fmt.Errorf("scaled %.3g misses/item at s=%d, %.3g at s=%d: not falling above the floor %.3g", prev.scaled, prev.s, r.scaled, r.s, floor)
		}
		if i >= len(e10.rows)-2 && r.scaled > 2*floor {
			return fmt.Errorf("scaled %.3g misses/item at s=%d: not saturated at the floor %.3g", r.scaled, r.s, floor)
		}
		lowest = min(lowest, r.scaled)
	}
	if e10.partitioned >= lowest {
		return fmt.Errorf("partitioned reference %.3g misses/item, lowest scaled %.3g: not below the floor", e10.partitioned, lowest)
	}
	return nil
}
