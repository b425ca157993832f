package plancache

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"streamsched/internal/obs"
)

// key builds a distinct test key from an integer.
func key(i int) Key {
	d := NewDigest()
	d.Int("test.key", int64(i))
	return d.Sum()
}

func val(n int) []byte { return make([]byte, n) }

func TestGetPutBasics(t *testing.T) {
	c := New(Config{Budget: 10 * (100 + entryOverhead)})
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	if !c.Put(key(1), []byte("hello")) {
		t.Fatal("Put rejected a value well under budget")
	}
	got, ok := c.Get(key(1))
	if !ok || string(got) != "hello" {
		t.Fatalf("Get = %q, %v; want hello, true", got, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if c.Bytes() != int64(5+entryOverhead) {
		t.Fatalf("Bytes = %d, want %d", c.Bytes(), 5+entryOverhead)
	}
	// Refresh in place: same key, new value, no second entry.
	c.Put(key(1), []byte("world"))
	got, _ = c.Get(key(1))
	if string(got) != "world" || c.Len() != 1 {
		t.Fatalf("after refresh: Get = %q, Len = %d", got, c.Len())
	}
}

// TestEvictionOrderDeterministic pins the exact LRU eviction sequence
// under a byte budget: inserts evict strictly least-recently-used-first,
// and Get refreshes recency.
func TestEvictionOrderDeterministic(t *testing.T) {
	size := int64(100 + entryOverhead)
	c := New(Config{Budget: 3 * size})
	c.Put(key(1), val(100))
	c.Put(key(2), val(100))
	c.Put(key(3), val(100))
	// Refresh 1 so 2 is now the LRU.
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("key 1 missing before eviction")
	}
	c.Put(key(4), val(100)) // must evict 2
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("key 2 survived; eviction was not LRU-first")
	}
	for _, i := range []int{1, 3, 4} {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("key %d evicted out of order", i)
		}
	}
	// Recency order is now 4, 3, 1 after the Gets above refreshed
	// 1, 3, 4 in that order => MRU 4, then 3, then 1.
	want := []Key{key(4), key(3), key(1)}
	if got := c.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
	// An oversized value is rejected, not admitted by mass eviction.
	if c.Put(key(9), val(int(3*size)+1)) {
		t.Fatal("oversized value admitted")
	}
	if c.Len() != 3 {
		t.Fatalf("oversized Put disturbed the cache: Len = %d", c.Len())
	}
}

// TestEvictionDeterministicReplay replays one random operation sequence
// against two independent caches and requires byte-identical resident
// state at every step — the determinism the daemon's cache-key contract
// promises.
func TestEvictionDeterministicReplay(t *testing.T) {
	const ops = 2000
	rng := rand.New(rand.NewSource(7))
	type op struct {
		put  bool
		key  int
		size int
	}
	seq := make([]op, ops)
	for i := range seq {
		seq[i] = op{put: rng.Intn(2) == 0, key: rng.Intn(64), size: rng.Intn(400)}
	}
	run := func() *Cache {
		c := New(Config{Budget: 20 * (200 + entryOverhead)})
		for _, o := range seq {
			if o.put {
				c.Put(key(o.key), val(o.size))
			} else {
				c.Get(key(o.key))
			}
		}
		return c
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Keys(), b.Keys()) {
		t.Fatal("identical op sequences diverged in resident keys/order")
	}
	if a.Bytes() != b.Bytes() {
		t.Fatalf("identical op sequences diverged in bytes: %d vs %d", a.Bytes(), b.Bytes())
	}
}

// TestBudgetInvariant: resident bytes never exceed the budget, across a
// random workload.
func TestBudgetInvariant(t *testing.T) {
	budget := int64(10 * (300 + entryOverhead))
	c := New(Config{Budget: budget})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		c.Put(key(rng.Intn(128)), val(rng.Intn(600)))
		if c.Bytes() > budget {
			t.Fatalf("op %d: resident %d bytes exceeds budget %d", i, c.Bytes(), budget)
		}
	}
}

// TestVersionMismatchOnGet: the engine version is part of every key the
// daemon builds, so an entry put under one version's key is a miss under
// the next version's — the only invalidation a new engine needs.
func TestVersionMismatchOnGet(t *testing.T) {
	keyUnder := func(engine string) Key {
		d := NewDigest()
		d.Str("engine", engine)
		d.Str("kind", "plan")
		return d.Sum()
	}
	c := New(Config{Budget: 1 << 20})
	c.Put(keyUnder("v1"), val(10))
	if _, ok := c.Get(keyUnder("v2")); ok {
		t.Fatal("an entry was served under another engine version's key")
	}
	if _, ok := c.Get(keyUnder("v1")); !ok {
		t.Fatal("the entry is missing under its own key")
	}
}

func TestDisabledCache(t *testing.T) {
	c := New(Config{Budget: 0})
	if c.Put(key(1), val(1)) {
		t.Fatal("disabled cache accepted a value")
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("disabled cache hit")
	}
}

func TestMetricsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	size := int64(50 + entryOverhead)
	c := New(Config{Budget: 2 * size, Metrics: reg})
	c.Put(key(1), val(50))
	c.Put(key(2), val(50))
	c.Get(key(1))
	c.Get(key(9))          // miss
	c.Put(key(3), val(50)) // evicts 2
	snap := reg.Snapshot()
	checks := map[string]int64{
		"cache.hits":      1,
		"cache.misses":    1,
		"cache.evictions": 1,
		"cache.inserts":   3,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["cache.entries"]; got != 2 {
		t.Errorf("cache.entries = %d, want 2", got)
	}
	if got := snap.Gauges["cache.bytes"]; got != 2*size {
		t.Errorf("cache.bytes = %d, want %d", got, 2*size)
	}
}

// TestDigestDeterminism: same field sequence, same key; any variation in
// content or order, different key.
func TestDigestDeterminism(t *testing.T) {
	build := func(f func(*Digest)) Key {
		d := NewDigest()
		f(d)
		return d.Sum()
	}
	a := build(func(d *Digest) { d.Str("x", "1"); d.Int("y", 2) })
	b := build(func(d *Digest) { d.Str("x", "1"); d.Int("y", 2) })
	if a != b {
		t.Fatal("identical field sequences hash differently")
	}
	variants := []Key{
		build(func(d *Digest) { d.Int("y", 2); d.Str("x", "1") }),  // reordered
		build(func(d *Digest) { d.Str("x", "2"); d.Int("y", 2) }),  // changed value
		build(func(d *Digest) { d.Str("x", "12"); d.Int("y", 2) }), // boundary shift
		build(func(d *Digest) { d.Str("xy", "1"); d.Int("", 2) }),  // tag shift
		build(func(d *Digest) { d.Str("x", "1") }),                 // prefix
		build(func(d *Digest) { d.Ints("x", nil); d.Int("y", 2) }), // kind change
	}
	seen := map[Key]int{a: -1}
	for i, v := range variants {
		if prev, dup := seen[v]; dup {
			t.Fatalf("variant %d collides with %d", i, prev)
		}
		seen[v] = i
	}
}

// TestDigestFraming: field framing is unambiguous — a value's bytes
// cannot bleed into the next field's tag.
func TestDigestFraming(t *testing.T) {
	d1 := NewDigest()
	d1.Str("a", "bc")
	d1.Str("d", "")
	d2 := NewDigest()
	d2.Str("a", "b")
	d2.Str("cd", "")
	if d1.Sum() == d2.Sum() {
		t.Fatal("framing ambiguity: shifted bytes collide")
	}
	d3 := NewDigest()
	d3.Ints("l", []int64{1, 2})
	d4 := NewDigest()
	d4.Ints("l", []int64{1})
	d4.Int("l", 2)
	if d3.Sum() == d4.Sum() {
		t.Fatal("list framing ambiguity")
	}
}

func TestKeyString(t *testing.T) {
	k := key(1)
	s := k.String()
	if len(s) != 64 {
		t.Fatalf("hex key length %d, want 64", len(s))
	}
	if fmt.Sprintf("%x", k[:]) != s {
		t.Fatal("String() disagrees with hex encoding")
	}
}

// TestDigestBytes pins the framing byte for byte: the key is SHA-256 of
// uvarint(len(tag)) ‖ tag ‖ kind ‖ value for each field in turn (a
// string's value is uvarint(len) ‖ bytes, an int's its zig-zag varint, a
// list's uvarint(len) ‖ varints), so a rewrite of Digest cannot move a
// daemon cache key.
func TestDigestBytes(t *testing.T) {
	d := NewDigest()
	d.Str("ab", "c")
	d.Int("n", -1)
	d.Ints("l", []int64{1, 300})
	want := sha256.Sum256([]byte{
		2, 'a', 'b', kindStr, 1, 'c',
		1, 'n', kindInt, 0x01,
		1, 'l', kindInts, 2, 0x02, 0xd8, 0x04,
	})
	if got := d.Sum(); got != Key(want) {
		t.Fatalf("digest %s, want %x", got, want)
	}
	d.Int("more", 0) // Sum leaves the digest usable
	if d.Sum() == Key(want) {
		t.Fatal("a field written after Sum did not change the key")
	}
}
