package dht

import "testing"

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

func TestWriteCountCoversSingleAndBatchedWrites(t *testing.T) {
	s := mustStore("w", Options{Shards: 4})
	if got := s.WriteCount(); got != 0 {
		t.Fatalf("fresh store write count %d", got)
	}
	if err := s.Put(1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if got := s.WriteCount(); got != 2 {
		t.Fatalf("write count %d, want 2", got)
	}
	if _, err := s.BatchPut([]Pair{{Key: 2, Value: []byte{3}}, {Key: 3, Value: []byte{4}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BatchPut([]Pair{{Key: 2, Value: []byte{5}}}); err != nil {
		t.Fatal(err)
	}
	if got := s.WriteCount(); got != 5 {
		t.Fatalf("write count %d, want 5 (batched writes counted per key)", got)
	}
}
