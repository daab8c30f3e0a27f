package dht

import (
	"math/rand"
	"reflect"
	"testing"
)

// shardGroupsMap is shardGroups as it stood before the counting sort: a map
// of append-grown position slices keyed by shard.  Kept as the reference.
func (s *Store) shardGroupsMap(keys []uint64) map[int][]int {
	groups := make(map[int][]int)
	for i, k := range keys {
		idx := s.shardIndexFor(k)
		groups[idx] = append(groups[idx], i)
	}
	return groups
}

// TestShardGroupsMatchesMapVersion: the counting sort yields, shard by
// shard, exactly the positions the map version collected, in the same order,
// under hashed and range placement, on random keys with repeats.
func TestShardGroupsMatchesMapVersion(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		shards := 1 + rnd.Intn(12)
		opts := Options{Shards: shards}
		if trial%2 == 1 {
			opts.Placement = OwnerAffine(1+rnd.Intn(4), 500)
		}
		s := mustStore("d0", opts)
		keys := make([]uint64, rnd.Intn(300))
		for i := range keys {
			keys[i] = uint64(rnd.Intn(500))
		}
		order, starts := s.shardGroups(len(keys), func(i int) uint64 { return keys[i] })
		if len(order) != len(keys) || len(starts) != shards+1 || starts[0] != 0 || int(starts[shards]) != len(keys) {
			t.Fatalf("trial %d: %d positions, starts %v for %d keys on %d shards", trial, len(order), starts, len(keys), shards)
		}
		want := s.shardGroupsMap(keys)
		for idx := 0; idx < shards; idx++ {
			var got []int
			for _, p := range order[starts[idx]:starts[idx+1]] {
				got = append(got, int(p))
			}
			if !reflect.DeepEqual(got, want[idx]) {
				t.Fatalf("trial %d shard %d: positions %v, want %v", trial, idx, got, want[idx])
			}
		}
	}
}

// TestCacheBatchProbesMatchPerKey: PeekMany and FillMany leave a cache in the
// state, and with the hit and miss counts, that per-key Peek and Fill over
// the same keys leave it in — repeats, absent keys and a partly warm cache
// included.
func TestCacheBatchProbesMatchPerKey(t *testing.T) {
	s := mustStore("d0", Options{})
	const present = 40
	for k := uint64(0); k < present; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		batch, perKey := NewCache(s), NewCache(s)
		for round := 0; round < 3; round++ {
			keys := make([]uint64, rnd.Intn(30))
			for i := range keys {
				keys[i] = uint64(rnd.Intn(present + 10))
			}
			vals, oks := make([][]byte, len(keys)), make([]bool, len(keys))
			miss := batch.PeekMany(keys, vals, oks, nil)
			var wantMiss []int
			for i, k := range keys {
				v, ok, cached := perKey.Peek(k)
				if !cached {
					wantMiss = append(wantMiss, i)
					continue
				}
				if ok != oks[i] || string(v) != string(vals[i]) {
					t.Fatalf("trial %d key %d: PeekMany %q,%v, Peek %q,%v", trial, k, vals[i], oks[i], v, ok)
				}
			}
			if !reflect.DeepEqual(miss, wantMiss) {
				t.Fatalf("trial %d: missed positions %v, want %v", trial, miss, wantMiss)
			}
			// Fill what missed, as a batched read does (repeats included:
			// each counts one miss on either path).
			missKeys := make([]uint64, len(miss))
			for i, p := range miss {
				missKeys[i] = keys[p]
			}
			mv, mo, _, err := s.BatchGet(missKeys)
			if err != nil {
				t.Fatal(err)
			}
			batch.FillMany(missKeys, mv, mo)
			for i, k := range missKeys {
				perKey.Fill(k, mv[i], mo[i])
			}
			if batch.Hits() != perKey.Hits() || batch.Misses() != perKey.Misses() || batch.Len() != perKey.Len() {
				t.Fatalf("trial %d round %d: batch hits/misses/len %d/%d/%d, per key %d/%d/%d", trial, round,
					batch.Hits(), batch.Misses(), batch.Len(), perKey.Hits(), perKey.Misses(), perKey.Len())
			}
		}
	}
}

var benchStarts []int32

// BenchmarkShardGroups measures grouping one 512-key batch by shard — the
// per-batch fixed cost of every BatchGet and batch write — on the store shape
// of the wall-clock benchmark (8 shards, range placement over 2 machines).
func BenchmarkShardGroups(b *testing.B) {
	const keyspace = 1 << 18
	s := mustStore("d0", Options{Shards: 8, Placement: OwnerAffine(2, keyspace)})
	rnd := rand.New(rand.NewSource(1))
	keys := make([]uint64, 512)
	for i := range keys {
		keys[i] = uint64(rnd.Intn(keyspace))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, benchStarts = s.shardGroups(len(keys), func(i int) uint64 { return keys[i] })
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
}
