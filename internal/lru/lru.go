// Package lru is the one bounded least-recently-used cache of the
// toolchain: the verification service's verdict and report caches, the
// coordinator's cluster cache, and the artifact store's memory tier are
// all a Cache with different key and value types.
package lru

import (
	"container/list"
	"sync"

	"pnp/internal/obs"
)

// defaultMax bounds a cache built with max <= 0.
const defaultMax = 1024

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Metrics mirrors a cache's counters into an obs registry. Every field
// is optional: nil instruments are no-ops.
type Metrics struct {
	Hits, Misses, Evictions *obs.Counter
	Entries                 *obs.Gauge
}

// Cache is a bounded LRU map, safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used; values are *entry[K, V]
	entries map[K]*list.Element
	stats   Stats // Entries unused; Len is the truth
	m       Metrics
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New creates a cache bounded to max entries (max <= 0 selects
// defaultMax).
func New[K comparable, V any](max int, m Metrics) *Cache[K, V] {
	if max <= 0 {
		max = defaultMax
	}
	return &Cache[K, V]{max: max, ll: list.New(), entries: make(map[K]*list.Element), m: m}
}

// Get looks a value up, counting a hit or a miss and marking the entry
// most recently used on a hit.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		c.m.Misses.Inc()
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.m.Hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Peek looks a value up without touching hit/miss accounting or
// recency — a free read for a peer, not local cache traffic.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores a value, evicting the least recently used entry when the
// cache is full. Storing an existing key refreshes its value and
// recency.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[K, V]).key)
		c.stats.Evictions++
		c.m.Evictions.Inc()
	}
	c.entries[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
	c.m.Entries.Set(int64(c.ll.Len()))
}

// Len reports the current number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}
