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
		{"E2", "Fig 2: on a pipeline that does not fit in cache, a baseline reloads module state every item, so its misses/item grow linearly with pipeline length, while the partitioned schedule's stay flat", func() error {
			e2, err := buildE2(false)
			if err != nil {
				return err
			}
			return e2Claim(e2)
		}},
		{"E8", "Fig 6: the partitioned schedule moves whole blocks, so its misses/item scale as 1/B: misses/item x B stays near constant across B", func() error {
			e8, err := buildE8(false)
			if err != nil {
				return err
			}
			return e8Claim(e8)
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
