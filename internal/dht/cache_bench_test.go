package dht

import (
	"math/rand"
	"testing"

	"ampcgraph/internal/codec"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
)

// Micro-benchmarks of Cache in front of the frozen mem adjacency store (the
// MIS/matching substrate: HL's encoded neighbour lists at scale 1), read on
// machine 0 in a fixed random key order — the wall-clock benchmark's cache
// probe in testing.B form.  They use only NewCache, GetFrom and Invalidate,
// so the file can be copied into an older checkout for a before/after pair.

// cacheBenchStore returns the frozen adjacency store and a random order of
// its keys.
func cacheBenchStore(b *testing.B) (*Store, []uint64) {
	d, _ := gen.DatasetByName("HL")
	g := d.Build(1, 1)
	s, err := NewStore("cache-bench", Options{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	keys := make([]uint64, g.NumNodes())
	for v := range keys {
		keys[v] = uint64(v)
		if err := s.Put(uint64(v), codec.EncodeNodeIDs(g.Neighbors(graph.NodeID(v)))); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Freeze(); err != nil {
		b.Fatal(err)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return s, keys
}

// BenchmarkCacheHit: one GetFrom of a key the cache already holds.
func BenchmarkCacheHit(b *testing.B) {
	s, keys := cacheBenchStore(b)
	c := NewCache(s)
	for _, k := range keys {
		if _, _, err := c.GetFrom(0, k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := c.GetFrom(0, keys[i%len(keys)]); !ok || err != nil {
			b.Fatalf("hit: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkCacheMiss: one GetFrom that reads through to the store and fills
// the cache.  The cache is emptied (untimed) each time the key order wraps.
func BenchmarkCacheMiss(b *testing.B) {
	s, keys := cacheBenchStore(b)
	c := NewCache(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		if j == 0 && i > 0 {
			b.StopTimer()
			c.Invalidate()
			b.StartTimer()
		}
		if _, ok, err := c.GetFrom(0, keys[j]); !ok || err != nil {
			b.Fatalf("miss: ok=%v err=%v", ok, err)
		}
	}
}
