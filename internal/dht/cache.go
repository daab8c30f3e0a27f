package dht

import (
	"sync"
	"sync/atomic"
)

// Cache is a per-machine read-through cache in front of a Store.  Section 2
// of the paper argues that caching query results on each machine removes
// query contention, and Section 5.3 measures the optimization empirically
// (Figure 4): caching reduces both the number of bytes communicated with the
// key-value store and the wall-clock time.  The cache is safe for concurrent
// use by the threads of one machine.
type Cache struct {
	store *Store

	mu     sync.RWMutex
	local  map[uint64][]byte
	absent map[uint64]bool

	hits   atomic.Int64
	misses atomic.Int64
}

// NewCache returns an empty cache reading through to store.
func NewCache(store *Store) *Cache {
	return &Cache{
		store:  store,
		local:  make(map[uint64][]byte),
		absent: make(map[uint64]bool),
	}
}

// Get returns the value for key, serving it locally when possible.
func (c *Cache) Get(key uint64) ([]byte, bool, error) {
	return c.GetFrom(-1, key)
}

// GetFrom is Get with the read-through attributed to the given machine, so
// the store can classify a miss that reaches a co-located shard as a local
// read (see Store.GetFrom).
func (c *Cache) GetFrom(machine int, key uint64) ([]byte, bool, error) {
	c.mu.RLock()
	if v, ok := c.local[key]; ok {
		c.mu.RUnlock()
		c.hits.Add(1)
		return v, true, nil
	}
	if c.absent[key] {
		c.mu.RUnlock()
		c.hits.Add(1)
		return nil, false, nil
	}
	c.mu.RUnlock()

	v, ok, err := c.store.getFrom(machine, key)
	if err != nil {
		return nil, false, err
	}
	c.misses.Add(1)
	c.mu.Lock()
	if ok {
		c.local[key] = v
	} else {
		c.absent[key] = true
	}
	c.mu.Unlock()
	return v, ok, nil
}

// Peek returns the cached value for key without reading through to the
// store.  cached reports whether the cache holds an answer (present or
// known-absent) for key; a successful Peek counts as a hit.  It is the
// single-key form of PeekMany, the building block of batched reads: callers
// peek every key first, batch the remainder through the store in one
// shard-grouped BatchGet, and fill the results back (FillMany).
func (c *Cache) Peek(key uint64) (v []byte, ok, cached bool) {
	c.mu.RLock()
	if v, ok := c.local[key]; ok {
		c.mu.RUnlock()
		c.hits.Add(1)
		return v, true, true
	}
	if c.absent[key] {
		c.mu.RUnlock()
		c.hits.Add(1)
		return nil, false, true
	}
	c.mu.RUnlock()
	return nil, false, false
}

// Fill records a value fetched from the store on the caller's behalf (for
// example by a batched read).  It counts as a miss, mirroring Get's
// accounting for lookups that had to reach the store.
func (c *Cache) Fill(key uint64, v []byte, ok bool) {
	c.misses.Add(1)
	c.mu.Lock()
	if ok {
		c.local[key] = v
	} else {
		c.absent[key] = true
	}
	c.mu.Unlock()
}

// PeekMany is Peek over a batch under one lock acquisition: for every key the
// cache holds an answer for, vals[i] and oks[i] are set and one hit is
// counted, exactly as Peek(keys[i]) would; the positions of the other keys
// are appended to miss, in key order, and the extended slice is returned.
// vals and oks must be at least as long as keys; entries at missed positions
// are left as they were.
func (c *Cache) PeekMany(keys []uint64, vals [][]byte, oks []bool, miss []int) []int {
	hits := 0
	c.mu.RLock()
	for i, k := range keys {
		if v, ok := c.local[k]; ok {
			vals[i], oks[i] = v, true
			hits++
		} else if c.absent[k] {
			vals[i], oks[i] = nil, false
			hits++
		} else {
			miss = append(miss, i)
		}
	}
	c.mu.RUnlock()
	if hits > 0 {
		c.hits.Add(int64(hits))
	}
	return miss
}

// FillMany is Fill over a batch under one lock acquisition: every
// (keys[i], vals[i], oks[i]) is recorded and counted as one miss.
func (c *Cache) FillMany(keys []uint64, vals [][]byte, oks []bool) {
	if len(keys) == 0 {
		return
	}
	c.misses.Add(int64(len(keys)))
	c.mu.Lock()
	for i, k := range keys {
		if oks[i] {
			c.local[k] = vals[i]
		} else {
			c.absent[k] = true
		}
	}
	c.mu.Unlock()
}

// Invalidate drops every cached entry (present and known-absent), forcing
// subsequent lookups back to the store.  The AMPC runtime uses it as the
// per-store cache fence of the pipelined scheduler: a store's per-machine
// caches are invalidated whenever the store's write counter has moved since
// the caches were last known coherent, so a store written in round i and
// read in round i+1 can never serve a stale entry — regardless of how the
// rounds overlapped.  (In the runtime this is defense-in-depth: dependency
// gating plus freeze-at-first-read already prevent writes after caching.)
// Hit/miss counters are preserved.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.local = make(map[uint64][]byte)
	c.absent = make(map[uint64]bool)
	c.mu.Unlock()
}

// InvalidateRange drops only the cached entries whose keys fall inside set,
// leaving the rest of the cache warm.  It is the range-aware counterpart of
// Invalidate: the pipelined scheduler fences a machine's cache with exactly
// the spans that declared write sub-rounds have completed since the cache
// was last fenced, so disjoint-range sub-rounds no longer thrash caches
// that cannot hold stale entries.  A whole-keyspace set degenerates to
// Invalidate; an empty set is a no-op.
func (c *Cache) InvalidateRange(set RangeSet) {
	if set.Whole() {
		c.Invalidate()
		return
	}
	if set.Empty() {
		return
	}
	c.mu.Lock()
	for k := range c.local {
		if set.Contains(k) {
			delete(c.local, k)
		}
	}
	for k := range c.absent {
		if set.Contains(k) {
			delete(c.absent, k)
		}
	}
	c.mu.Unlock()
}

// Hits returns the number of lookups served from the cache.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of lookups that had to reach the store.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Len returns the number of cached entries (present and absent).
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.local) + len(c.absent)
}
