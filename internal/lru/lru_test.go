package lru

import (
	"sync"
	"testing"

	"localalias/internal/obs"
)

// TestEvictionOrder: a full cache drops the least recently used entry,
// and recency is refreshed by both Get and re-Put.
func TestEvictionOrder(t *testing.T) {
	c := New[string, int](2, Counters{})
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // a is now most recently used
	c.Put("c", 3) // must evict b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order ignores Get recency")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was evicted despite being most recently used")
	}
	c.Put("c", 30) // refresh c: a is now the oldest
	c.Put("d", 4)  // must evict a
	if _, ok := c.Get("a"); ok {
		t.Error("a survived eviction; LRU order ignores re-Put recency")
	}
	if v, ok := c.Get("c"); !ok || v != 30 {
		t.Errorf("Get(c) = %d, %v; want the re-Put value 30", v, ok)
	}
	st := c.Stats()
	want := Stats{Hits: 3, Misses: 2, Evictions: 2, Entries: 2, Capacity: 2}
	if st != want {
		t.Errorf("stats = %+v; want %+v", st, want)
	}
}

// TestCapacityClamp: capacity below 1 is clamped, not rejected.
func TestCapacityClamp(t *testing.T) {
	c := New[int, int](0, Counters{})
	c.Put(1, 1)
	c.Put(2, 2)
	if _, ok := c.Get(1); ok {
		t.Error("capacity-1 cache kept both entries")
	}
	if st := c.Stats(); st.Entries != 1 || st.Capacity != 1 {
		t.Errorf("stats = %+v; want entries=1 capacity=1", st)
	}
}

// TestCountersMirrorStats: every hit, miss and eviction also moves the
// obs counters the owner passed in.
func TestCountersMirrorStats(t *testing.T) {
	reg := obs.NewRegistry()
	cs := Counters{
		Hits:      reg.Counter("hits", ""),
		Misses:    reg.Counter("misses", ""),
		Evictions: reg.Counter("evictions", ""),
	}
	c := New[int, int](1, cs)
	c.Get(1)
	c.Put(1, 1)
	c.Get(1)
	c.Put(2, 2)
	st := c.Stats()
	if cs.Hits.Value() != st.Hits || cs.Misses.Value() != st.Misses || cs.Evictions.Value() != st.Evictions {
		t.Errorf("counters hits=%d misses=%d evictions=%d; stats %+v",
			cs.Hits.Value(), cs.Misses.Value(), cs.Evictions.Value(), st)
	}
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v; want one hit, one miss, one eviction", st)
	}
}

// TestNoAllocPerOp: once full, neither Get (hit or miss) nor Put
// (refresh or evicting insert) allocates.
func TestNoAllocPerOp(t *testing.T) {
	const capacity = 64
	c := New[int, int](capacity, Counters{})
	for k := 0; k < capacity; k++ {
		c.Put(k, k)
	}
	next := capacity
	ops := map[string]func(){
		"get hit":   func() { c.Get(next - 1) },
		"get miss":  func() { c.Get(-1) },
		"put fresh": func() { c.Put(next-1, 0) },
		"put evict": func() { c.Put(next, next); next++ },
	}
	for name, op := range ops {
		if n := testing.AllocsPerRun(1000, op); n != 0 {
			t.Errorf("%s: %v allocs per op, want 0", name, n)
		}
	}
}

// TestConcurrentUse: Gets and Puts from several goroutines keep the
// list and the accounting consistent (run under -race in CI).
func TestConcurrentUse(t *testing.T) {
	const workers, ops = 4, 2000
	c := New[int, int](16, Counters{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (i*7 + w) % 40
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
				}
				c.Put(k, k)
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*ops || st.Entries != 16 {
		t.Errorf("stats = %+v; want %d lookups and 16 entries", st, workers*ops)
	}
}
