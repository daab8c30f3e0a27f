package dht

import "sync/atomic"

// Cache is a per-machine read-through cache in front of a frozen Store.
// Section 2 of the paper argues that caching query results on each machine
// removes query contention, and Section 5.3 measures the optimization
// empirically (Figure 4): caching reduces both the number of bytes
// communicated with the key-value store and the wall-clock time.
//
// The cache is one CacheTable from key to value: a present value is the
// store's own slice (values of a frozen store never change, so it is never
// copied), and a key the store does not hold maps to a sentinel slice that
// marks it known-absent.  A hit takes no lock, so the threads of one machine
// share the cache without contending on it; a fill takes the table's mutex,
// and when two threads fill the same key the first value stays — both read
// it from the same frozen store.  Each slot is 32 bytes.
type Cache struct {
	store *Store
	table CacheTable[[]byte]

	hits   atomic.Int64
	misses atomic.Int64
}

// absentMark backs the sentinel value of a known-absent key: an empty slice
// whose array no store value shares, told apart by address.
var absentMark [1]byte

func isAbsent(v []byte) bool { return cap(v) == 1 && &v[:1][0] == &absentMark[0] }

// NewCache returns an empty cache reading through to store.
func NewCache(store *Store) *Cache {
	return &Cache{store: store}
}

// Reserve records that the cache is expected to hold about keys entries, so
// that its table is allocated once at that size on the first fill instead of
// growing from a few slots.
func (c *Cache) Reserve(keys int) { c.table.Reserve(keys) }

// Get returns the value for key, serving it locally when possible.
func (c *Cache) Get(key uint64) ([]byte, bool, error) {
	return c.GetFrom(-1, key)
}

// GetFrom is Get with the read-through attributed to the given machine, so
// the store can classify a miss that reaches a co-located shard as a local
// read (see Store.GetFrom).
func (c *Cache) GetFrom(machine int, key uint64) ([]byte, bool, error) {
	if v, ok, cached := c.Peek(key); cached {
		return v, ok, nil
	}
	v, ok, err := c.store.getFrom(machine, key)
	if err != nil {
		return nil, false, err
	}
	c.Fill(key, v, ok)
	return v, ok, nil
}

// Peek returns the cached value for key without reading through to the
// store.  cached reports whether the cache holds an answer (present or
// known-absent) for key; a successful Peek counts as a hit.  A caller that
// misses reads the store itself and hands the answer to Fill — one probe
// and one insert per miss, as GetFrom does.  PeekMany and FillMany are the
// batched forms: callers peek every key first, batch the remainder through
// the store in one shard-grouped BatchGet, and fill the results back.
func (c *Cache) Peek(key uint64) (v []byte, ok, cached bool) {
	if v, ok, cached = c.answer(key); cached {
		c.hits.Add(1)
	}
	return v, ok, cached
}

// answer is Peek without the hit count.
func (c *Cache) answer(key uint64) (v []byte, ok, cached bool) {
	v, cached = c.table.Get(key)
	switch {
	case !cached:
		return nil, false, false
	case isAbsent(v):
		return nil, false, true
	}
	return v, true, true
}

// Fill records a value fetched from the store on the caller's behalf (ok
// false: the store holds no value for key).  It counts as a miss, mirroring
// Get's accounting for lookups that had to reach the store.
func (c *Cache) Fill(key uint64, v []byte, ok bool) {
	c.misses.Add(1)
	c.table.Insert(key, entry(v, ok))
}

// entry is the table's form of a store answer.
func entry(v []byte, ok bool) []byte {
	if !ok {
		return absentMark[:0]
	}
	return v
}

// PeekMany is Peek over a batch: for every key the cache holds an answer
// for, vals[i] and oks[i] are set and one hit is counted, exactly as
// Peek(keys[i]) would; the positions of the other keys are appended to miss,
// in key order, and the extended slice is returned.  vals and oks must be at
// least as long as keys; entries at missed positions are left as they were.
func (c *Cache) PeekMany(keys []uint64, vals [][]byte, oks []bool, miss []int) []int {
	hits := 0
	for i, k := range keys {
		v, ok, cached := c.answer(k)
		if !cached {
			miss = append(miss, i)
			continue
		}
		vals[i], oks[i] = v, ok
		hits++
	}
	if hits > 0 {
		c.hits.Add(int64(hits))
	}
	return miss
}

// FillMany is Fill over a batch under one acquisition of the table's mutex:
// every (keys[i], vals[i], oks[i]) is recorded and counted as one miss.
func (c *Cache) FillMany(keys []uint64, vals [][]byte, oks []bool) {
	if len(keys) == 0 {
		return
	}
	c.misses.Add(int64(len(keys)))
	c.table.InsertEach(len(keys), func(i int) (uint64, []byte) {
		return keys[i], entry(vals[i], oks[i])
	})
}

// Invalidate drops every cached entry (present and known-absent), forcing
// subsequent lookups back to the store.  Hit/miss counters are preserved.
// A cache in front of a frozen store never needs it for coherence; its one
// caller is the wall-clock benchmark's cache probe, which times misses on a
// cold cache.
func (c *Cache) Invalidate() { c.table.Reset() }

// Hits returns the number of lookups served from the cache.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of lookups that had to reach the store.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Len returns the number of cached entries (present and absent).
func (c *Cache) Len() int { return c.table.Len() }
