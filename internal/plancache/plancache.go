// Package plancache is the daemon's content-addressed result cache: a
// byte-budgeted, deterministically LRU-evicting map from content hashes
// (Key, built with Digest) to immutable serialised results.
//
// Design contract (SERVICE.md spells out the operator-facing version):
//
//   - Keys are SHA-256 over a canonical serialisation of everything the
//     cached computation depends on — the engine version, the request
//     kind, the graph's semantic content, and every request parameter
//     after defaulting. Two requests that differ only in JSON field
//     order, whitespace, or omitted-vs-explicit defaults therefore hash
//     identically.
//   - Eviction is deterministic: entries are kept in strict recency
//     order under one mutex (Get refreshes, Put inserts most-recent) and
//     evicted strictly least-recently-used-first until the byte budget
//     holds. Replaying the same operation sequence against the same
//     budget always evicts the same keys in the same order.
//   - Values are immutable: Put takes ownership of the byte slice and
//     Get returns it without copying. Callers must not mutate either.
//
// The cache publishes the daemon metric contract's cache.* family to an
// obs.Registry (nil = off): cache.hits, cache.misses, cache.evictions,
// cache.inserts counters plus cache.bytes and cache.entries gauges.
package plancache

import (
	"container/list"
	"encoding/hex"

	"sync"

	"streamsched/internal/obs"
)

// Key is a 32-byte content address (a SHA-256 sum built by Digest).
type Key [32]byte

// String renders the key as lowercase hex, the form the daemon reports
// in response bodies and the X-Streamsched-Key header.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// entryOverhead is the per-entry accounting constant added to the value
// length when charging the byte budget: the key, the list element, the
// map slot, and the entry struct itself, rounded up. It keeps a cache
// full of tiny values from holding unbounded real memory on a nominal
// budget.
const entryOverhead = 160

// Config configures a Cache.
type Config struct {
	// Budget is the byte budget (value bytes + entryOverhead per
	// entry). Budget <= 0 disables caching entirely: every Get misses
	// and every Put is rejected. A single value larger than the budget
	// is rejected rather than evicting the whole cache for it.
	Budget int64
	// Version is ignored.
	//
	// Deprecated: the engine version is part of every key the daemon
	// builds, and the cache lives in memory only, so a new engine starts
	// empty. The field stays because the frozen bench/ module sets it.
	Version string
	// Metrics receives the cache.* metric family. Nil falls back to the
	// process default registry (which is itself usually nil = off).
	Metrics *obs.Registry
}

// Cache is the content-addressed result cache. All methods are safe for
// concurrent use; the zero value is unusable — construct with New.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	order  *list.List // front = most recent
	items  map[Key]*list.Element

	hits, misses, evictions, inserts *obs.Counter
	bytesG, entriesG                 *obs.Gauge
}

type entry struct {
	key  Key
	val  []byte
	size int64
}

// New builds a cache with the given budget.
func New(cfg Config) *Cache {
	reg := obs.Or(cfg.Metrics)
	return &Cache{
		budget:    cfg.Budget,
		order:     list.New(),
		items:     make(map[Key]*list.Element),
		hits:      reg.Counter("cache.hits"),
		misses:    reg.Counter("cache.misses"),
		evictions: reg.Counter("cache.evictions"),
		inserts:   reg.Counter("cache.inserts"),
		bytesG:    reg.Gauge("cache.bytes"),
		entriesG:  reg.Gauge("cache.entries"),
	}
}

// Get returns the cached value for k and refreshes its recency. The
// returned slice is the cache's own copy — callers must not mutate it.
func (c *Cache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*entry).val, true
}

// Put inserts (or refreshes) k -> val and evicts least-recently-used
// entries until the byte budget holds. The cache takes ownership of val.
// Returns false when the value was rejected (caching disabled, or the
// single value exceeds the whole budget).
func (c *Cache) Put(k Key, val []byte) bool {
	size := int64(len(val)) + entryOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 || size > c.budget {
		return false
	}
	if el, ok := c.items[k]; ok {
		// Refresh in place: newest recency, new value.
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.order.MoveToFront(el)
	} else {
		el := c.order.PushFront(&entry{key: k, val: val, size: size})
		c.items[k] = el
		c.bytes += size
		c.inserts.Inc()
	}
	for c.bytes > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions.Inc()
	}
	c.publishLocked()
	return true
}

// removeLocked unlinks el; c.mu must be held.
func (c *Cache) removeLocked(el *list.Element) {
	e := c.order.Remove(el).(*entry)
	delete(c.items, e.key)
	c.bytes -= e.size
}

// publishLocked refreshes the byte/entry gauges; c.mu must be held.
func (c *Cache) publishLocked() {
	c.bytesG.Set(c.bytes)
	c.entriesG.Set(int64(len(c.items)))
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes returns the budget-accounted resident size.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Budget returns the configured byte budget.
func (c *Cache) Budget() int64 { return c.budget }

// Keys returns the resident keys in recency order, most recent first —
// the exact order eviction will consume from the back. It is the oracle
// for the determinism property: TestEvictionOrderDeterministic and
// TestEvictionDeterministicReplay compare it after a fixed operation
// sequence.
func (c *Cache) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]Key, 0, len(c.items))
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry).key)
	}
	return keys
}
