package dht

import (
	"math/rand"
	"sync"
	"testing"
)

func TestCacheInvalidateDropsEntriesKeepsCounters(t *testing.T) {
	s := mustStore("c", Options{Shards: 4})
	if err := s.Put(1, []byte{10}); err != nil {
		t.Fatal(err)
	}
	c := NewCache(s)
	if v, ok, err := c.Get(1); err != nil || !ok || v[0] != 10 {
		t.Fatalf("get 1: %v %v %v", v, ok, err)
	}
	if _, ok, err := c.Get(2); ok || err != nil {
		t.Fatalf("get 2: %v %v", ok, err)
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2 (one present, one absent)", c.Len())
	}
	hits, misses := c.Hits(), c.Misses()
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatalf("len after invalidate %d, want 0", c.Len())
	}
	if c.Hits() != hits || c.Misses() != misses {
		t.Fatalf("invalidate changed counters: %d/%d -> %d/%d", hits, misses, c.Hits(), c.Misses())
	}
	// The cache reads through again — including keys it had marked absent
	// that have been written since.
	if err := s.Put(2, []byte{20}); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get(2); err != nil || !ok || v[0] != 20 {
		t.Fatalf("post-invalidate get 2: %v %v %v", v, ok, err)
	}
}

// TestWriteCountCoversSingleAndBatchedWrites: Stats().Writes counts every
// key written, single or batched.
func TestWriteCountCoversSingleAndBatchedWrites(t *testing.T) {
	s := mustStore("w", Options{Shards: 4})
	if got := s.Stats().Writes; got != 0 {
		t.Fatalf("fresh store write count %d", got)
	}
	if err := s.Put(1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Writes; got != 2 {
		t.Fatalf("write count %d, want 2", got)
	}
	if _, err := s.BatchPut([]Pair{{Key: 2, Value: []byte{3}}, {Key: 3, Value: []byte{4}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BatchPut([]Pair{{Key: 2, Value: []byte{5}}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Writes; got != 5 {
		t.Fatalf("write count %d, want 5 (batched writes counted per key)", got)
	}
}

// cacheTableWords returns the key words of t's occupied slots, failing the
// test if a key holds two of them.
func cacheTableWords[V any](t *testing.T, tab *CacheTable[V]) map[uint64]bool {
	t.Helper()
	words := make(map[uint64]bool)
	cur := tab.cur.Load()
	if cur == nil {
		return words
	}
	for i := uint64(0); i < cur.n; i++ {
		w := cur.slot(i).word.Load()
		if w == 0 {
			continue
		}
		if words[w] {
			t.Fatalf("key %d holds two slots", w-1)
		}
		words[w] = true
	}
	if len(words) != cur.used {
		t.Fatalf("%d occupied slots, table counts %d", len(words), cur.used)
	}
	return words
}

// TestCacheConcurrentFillsWhileGrowing: eight goroutines probe and fill
// overlapping keys of one cache — single-key GetFrom and batched
// PeekMany/FillMany, present and absent keys — while its table grows from
// its first few slots.  Every answer is the frozen store's, every key holds
// exactly one slot afterwards, and every lookup counted once.
func TestCacheConcurrentFillsWhileGrowing(t *testing.T) {
	const present, absent, workers = 2048, 512, 8
	s := mustStore("stress", Options{Shards: 4})
	for k := uint64(0); k < present; k++ {
		if err := s.Put(k, []byte{byte(k), byte(k >> 8), 7}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	check := func(k uint64, v []byte, ok bool) {
		if k >= present {
			if ok || v != nil {
				t.Errorf("key %d: got %v %v, want absent", k, v, ok)
			}
			return
		}
		if !ok || len(v) != 3 || v[0] != byte(k) || v[1] != byte(k>>8) {
			t.Errorf("key %d: got %v %v", k, v, ok)
		}
	}
	c := NewCache(s)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := rand.New(rand.NewSource(int64(w))).Perm(present + absent)
			if w%2 == 0 {
				for _, k := range keys {
					v, ok, err := c.Get(uint64(k))
					if err != nil {
						t.Error(err)
						return
					}
					check(uint64(k), v, ok)
				}
				return
			}
			const batch = 16
			vals, oks := make([][]byte, batch), make([]bool, batch)
			for lo := 0; lo < len(keys); lo += batch {
				ks := make([]uint64, batch)
				for i := range ks {
					ks[i] = uint64(keys[lo+i])
				}
				miss := c.PeekMany(ks, vals, oks, nil)
				missKeys := make([]uint64, len(miss))
				for i, p := range miss {
					missKeys[i] = ks[p]
				}
				mv, mo, _, err := s.BatchGet(missKeys)
				if err != nil {
					t.Error(err)
					return
				}
				c.FillMany(missKeys, mv, mo)
				for i, p := range miss {
					vals[p], oks[p] = mv[i], mo[i]
				}
				for i, k := range ks {
					check(k, vals[i], oks[i])
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(cacheTableWords(t, &c.table)); got != present+absent || c.Len() != got {
		t.Fatalf("%d keys in the table, Len %d, want %d", got, c.Len(), present+absent)
	}
	if got := c.Hits() + c.Misses(); got != workers*(present+absent) {
		t.Fatalf("hits+misses = %d, want %d", got, workers*(present+absent))
	}
	for k := uint64(0); k < present+absent; k++ {
		v, ok, cached := c.Peek(k)
		if !cached {
			t.Fatalf("key %d not cached", k)
		}
		check(k, v, ok)
	}
}
