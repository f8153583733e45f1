// Package lru is the bounded least-recently-used map behind the
// daemon's result cache (service.Cache) and the solver's component
// memo (solve.Memo). It keeps hit, miss and eviction counts once for
// both, and mirrors them into the obs counters each owner passes in.
package lru

import (
	"sync"

	"localalias/internal/obs"
)

// Counters are the process-wide metrics a Cache increments alongside
// its own accounting. Nil fields are skipped (obs counters are
// nil-safe).
type Counters struct {
	Hits, Misses, Evictions *obs.Counter
}

// Stats is a snapshot of a Cache's accounting.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// Cache is a bounded LRU map, safe for concurrent use. Entries live in
// one slice linked by index, so once the cache is full a Put reuses the
// evicted entry's slot, and neither Get nor Put allocates.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	index    map[K]int
	nodes    []node[K, V]
	// head is the most recently used slot, tail the least; -1 when
	// the cache is empty.
	head, tail int
	stats      Stats
	counters   Counters
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next int
}

// New builds a cache holding at most capacity entries (minimum 1).
func New[K comparable, V any](capacity int, c Counters) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		capacity: capacity,
		index:    make(map[K]int, capacity),
		head:     -1,
		tail:     -1,
		counters: c,
	}
}

// Get returns the value stored under key and marks it most recently
// used. The second result reports whether it was present.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		c.counters.Misses.Inc()
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.counters.Hits.Inc()
	c.unlink(i)
	c.pushFront(i)
	return c.nodes[i].val, true
}

// Put stores val under key as the most recently used entry, evicting
// the least recently used one when the cache is full. Re-putting an
// existing key replaces its value.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	switch {
	case ok:
		c.unlink(i)
	case len(c.nodes) < c.capacity:
		i = len(c.nodes)
		c.nodes = append(c.nodes, node[K, V]{})
	default:
		i = c.tail
		c.unlink(i)
		delete(c.index, c.nodes[i].key)
		c.stats.Evictions++
		c.counters.Evictions.Inc()
	}
	c.nodes[i].key, c.nodes[i].val = key, val
	c.index[key] = i
	c.pushFront(i)
}

// Stats returns a snapshot of the accounting counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.nodes)
	st.Capacity = c.capacity
	return st
}

func (c *Cache[K, V]) unlink(i int) {
	n := &c.nodes[i]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *Cache[K, V]) pushFront(i int) {
	n := &c.nodes[i]
	n.prev, n.next = -1, c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}
