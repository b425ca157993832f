package cachesim

import (
	"fmt"
	"math/rand"
	"testing"
)

// bankGeometries are the (sets, ways) shapes Bank and Cache are held to
// the reference on: fully associative, direct-mapped, 4-way, odd set
// counts, and a single line.
var bankGeometries = [][2]int64{{1, 16}, {32, 1}, {16, 4}, {3, 2}, {5, 1}, {7, 4}, {1, 1}}

// bankMixes name the block id mixes bankID draws from.
var bankMixes = []string{"dense", "negative", "limit", "sparse", "mixed"}

// bankID maps a mix and k in [0, 64) to a block id: small non-negative
// ids, negative ids, ids straddling the dense index's limit (1<<24 ± 1
// among them), far-apart ids of both signs, or all of those at once.
func bankID(mix int, k int64) int64 {
	switch mix {
	case 0:
		return k
	case 1:
		return -1 - k
	case 2:
		return denseLimit - 32 + k
	case 3:
		return (k - 32) << 30
	default:
		return bankID(int(k%4), k)
	}
}

// bankOp is one Bank call: an access, an insert (skipped when the block
// is resident, as the caller contract requires) or a remove.
type bankOp struct {
	kind int // 0 Access, 1 Insert, 2 Remove
	blk  int64
}

// bankOps is what replayBank drives: a Bank, or a committed mutant of one.
type bankOps interface {
	Access(int64) bool
	Insert(int64) (int64, bool)
	Remove(int64) bool
	Contains(int64) bool
	Len() int64
}

// replayBank drives ops through b and ref, comparing every result, the
// resident count and the op's block's residency after each op. It returns
// the first disagreement; a panic counts as one.
func replayBank(b bankOps, ref *reference, ops []bankOp) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	for k, op := range ops {
		switch op.kind {
		case 0:
			if got, want := b.Access(op.blk), ref.access(op.blk); got != want {
				return fmt.Errorf("op %d: Access(%d) = %v, want %v", k, op.blk, got, want)
			}
		case 1:
			if ref.contains(op.blk) {
				continue
			}
			gv, ge := b.Insert(op.blk)
			if wv, we := ref.insert(op.blk); gv != wv || ge != we {
				return fmt.Errorf("op %d: Insert(%d) = %d, %v; want %d, %v", k, op.blk, gv, ge, wv, we)
			}
		default:
			if got, want := b.Remove(op.blk), ref.remove(op.blk); got != want {
				return fmt.Errorf("op %d: Remove(%d) = %v, want %v", k, op.blk, got, want)
			}
		}
		if got, want := b.Len(), ref.len(); got != want {
			return fmt.Errorf("op %d: Len = %d, want %d", k, got, want)
		}
		if got, want := b.Contains(op.blk), ref.contains(op.blk); got != want {
			return fmt.Errorf("op %d: Contains(%d) = %v, want %v", k, op.blk, got, want)
		}
	}
	return nil
}

// randomBankOps draws n ops over one id mix: mostly accesses and inserts,
// with removes interleaved.
func randomBankOps(rng *rand.Rand, mix, n int) []bankOp {
	ops := make([]bankOp, n)
	for i := range ops {
		kind := 0
		switch r := rng.Intn(20); {
		case r >= 17:
			kind = 2
		case r >= 9:
			kind = 1
		}
		ops[i] = bankOp{kind, bankID(mix, rng.Int63n(64))}
	}
	return ops
}

// TestBankMatchesReference holds Bank (accesses, inserts and removes
// interleaved) and Cache (accesses that insert on a miss) against the
// naive reference, access for access, at every geometry, policy and id
// mix.
func TestBankMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, g := range bankGeometries {
		sets, ways := g[0], g[1]
		for _, policy := range []Policy{LRU, FIFO} {
			for mix, name := range bankMixes {
				ops := randomBankOps(rng, mix, 3000)
				if err := replayBank(NewBank(sets, ways, policy), newReference(sets, ways, policy), ops); err != nil {
					t.Errorf("%dx%d %s %s: bank: %v", sets, ways, policy, name, err)
				}
				cfg := Config{Capacity: sets * ways * 16, Block: 16, Ways: int(ways), Policy: policy}
				if sets == 1 {
					cfg.Ways = 0
				}
				c, ref := mustCache(t, cfg), newReference(sets, ways, policy)
				for k, op := range ops {
					hits := c.Stats().Hits
					c.AccessBlock(op.blk, false)
					if got, want := c.Stats().Hits > hits, ref.touch(op.blk); got != want {
						t.Errorf("%+v %s: access %d to %d: hit %v, want %v", cfg, name, k, op.blk, got, want)
						break
					}
				}
			}
		}
	}
}

// TestBankIndexGrowsToItsLimit checks the flat index's bounds. Ids the
// inserts served do not yet reach stay in the map; a scan that starts past
// the bank's line count still moves into the table; and the table stops at
// denseLimit, taking over the map entries below it.
func TestBankIndexGrowsToItsLimit(t *testing.T) {
	scan := NewBank(1, 2, LRU)
	for blk := int64(30); blk < 1030; blk++ {
		scan.Insert(blk)
	}
	if len(scan.sparse) != 0 || len(scan.dense) < 1030 {
		t.Errorf("scan left %d map entries, table %d", len(scan.sparse), len(scan.dense))
	}
	b, ref := NewBank(1, 64, LRU), newReference(1, 64, LRU)
	var ops []bankOp
	for blk := int64(denseLimit - 8); blk < denseLimit+8; blk++ {
		if blk != denseLimit-1 {
			ops = append(ops, bankOp{1, blk})
		}
	}
	if err := replayBank(b, ref, ops); err != nil || len(b.dense) != 0 || len(b.sparse) != 15 {
		t.Fatalf("far ids: %v; table %d, map %d", err, len(b.dense), len(b.sparse))
	}
	b.inserts = denseLimit // as if the bank had served that many
	if err := replayBank(b, ref, []bankOp{{1, denseLimit - 1}}); err != nil || len(b.dense) != denseLimit || len(b.sparse) != 8 {
		t.Fatalf("growth: %v; table %d, map %d, want %d and the 8 ids past the limit", err, len(b.dense), len(b.sparse), denseLimit)
	}
	if err := replayBank(b, ref, randomBankOps(rand.New(rand.NewSource(5)), 2, 500)); err != nil {
		t.Error(err)
	}
}

// fifoHitReorders is a FIFO Bank whose hits move the block to the front,
// as LRU hits do: a mutant the Bank oracles must reject.
type fifoHitReorders struct{ *Bank }

func (m fifoHitReorders) Access(blk int64) bool {
	if !m.Bank.Access(blk) {
		return false
	}
	m.Bank.Remove(blk)
	m.Bank.Insert(blk)
	return true
}

// removeLeaks is a Bank whose Remove unlinks the block but never puts its
// slot back on the set's free chain: a mutant the Bank oracles must
// reject.
type removeLeaks struct{ *Bank }

func (m removeLeaks) Remove(blk int64) bool {
	i := m.find(blk)
	if i < 0 {
		return false
	}
	m.unlink(m.chainOf(blk), i)
	m.index(blk, 0)
	m.n--
	return true
}

// TestBankOracleCatchesMutants is the mutation check of FuzzBank's oracle:
// on random op streams each mutant must disagree with the reference
// somewhere.
func TestBankOracleCatchesMutants(t *testing.T) {
	mutants := map[string]func(sets, ways int64) bankOps{
		"FIFO hit reorders": func(sets, ways int64) bankOps { return fifoHitReorders{NewBank(sets, ways, FIFO)} },
		"Remove leaks":      func(sets, ways int64) bankOps { return removeLeaks{NewBank(sets, ways, FIFO)} },
	}
	for name, mutant := range mutants {
		caught := 0
		rng := rand.New(rand.NewSource(3))
		for _, g := range bankGeometries {
			ops := randomBankOps(rng, 0, 500)
			if replayBank(mutant(g[0], g[1]), newReference(g[0], g[1], FIFO), ops) != nil {
				caught++
			}
		}
		if caught == 0 {
			t.Errorf("the Bank oracle accepts the %q mutant", name)
		}
	}
}

// FuzzBank drives an arbitrary op stream — accesses, inserts and removes
// over the same id mixes as TestBankMatchesReference — through a Bank of
// an arbitrary small geometry and policy, against the naive reference.
// Each op is two bytes: kind and id mix, then the id's index. Corpus under
// testdata/fuzz/FuzzBank runs in every plain go test.
func FuzzBank(f *testing.F) {
	f.Fuzz(func(t *testing.T, sets, ways uint8, fifo bool, raw []byte) {
		s, w, policy := int64(sets%8)+1, int64(ways%8)+1, LRU
		if fifo {
			policy = FIFO
		}
		ops := make([]bankOp, len(raw)/2)
		for i := range ops {
			op := int(raw[2*i])
			ops[i] = bankOp{op % 3, bankID(op/3%len(bankMixes), int64(raw[2*i+1]%64))}
		}
		if err := replayBank(NewBank(s, w, policy), newReference(s, w, policy), ops); err != nil {
			t.Fatalf("%dx%d %s: %v", s, w, policy, err)
		}
	})
}

// TestBankRemove pins Remove semantics: removal frees a slot without
// disturbing the order of the survivors.
func TestBankRemove(t *testing.T) {
	b := NewBank(1, 3, LRU)
	for _, blk := range []int64{1, 2, 3} {
		b.Insert(blk)
	}
	if !b.Remove(2) {
		t.Fatal("resident block not removed")
	}
	if b.Remove(2) {
		t.Error("removed block still resident")
	}
	if b.Contains(2) || !b.Contains(1) || !b.Contains(3) {
		t.Error("wrong residency after Remove")
	}
	// Order is now [3, 1]; inserting two blocks evicts 1 first, then 3.
	b.Insert(4)
	if victim, evicted := b.Insert(5); !evicted || victim != 1 {
		t.Errorf("victim = %d, %v; want 1, true", victim, evicted)
	}
	if victim, evicted := b.Insert(6); !evicted || victim != 3 {
		t.Errorf("victim = %d, %v; want 3, true", victim, evicted)
	}
}

// TestBankNegativeBlocks checks the set mapping stays collision-free for
// negative ids (the profilers' convention).
func TestBankNegativeBlocks(t *testing.T) {
	b := NewBank(4, 2, LRU)
	for _, blk := range []int64{-1, -2, -3, -4, -5} {
		if b.Access(blk) {
			t.Errorf("unseen block %d hit", blk)
		}
		b.Insert(blk)
	}
	for _, blk := range []int64{-2, -3, -4, -5} {
		if !b.Access(blk) {
			t.Errorf("resident block %d missed", blk)
		}
	}
}

// TestCacheNegativeBlocks is TestBankNegativeBlocks through a Cache: a
// negative block id maps to a floored set, so it neither panics nor
// collides, fully associative, direct-mapped and 2-way, LRU and FIFO.
func TestCacheNegativeBlocks(t *testing.T) {
	// -5 shares a set with -1 wherever sets are split, and -1 is the
	// oldest block of that set under either policy.
	stream := []int64{-1, -2, -3, -4, -1, -2, -3, -4, -5, -1, -4}
	want := []bool{false, false, false, false, true, true, true, true, false, false, true}
	for _, ways := range []int{0, 1, 2} {
		for _, policy := range []Policy{LRU, FIFO} {
			cfg := Config{Capacity: 64, Block: 16, Ways: ways, Policy: policy}
			c := mustCache(t, cfg)
			for k, blk := range stream {
				hits := c.Stats().Hits
				c.AccessBlock(blk, false)
				if got := c.Stats().Hits > hits; got != want[k] {
					t.Errorf("%+v: access %d to block %d hit %v, want %v", cfg, k, blk, got, want[k])
				}
			}
		}
	}
}
