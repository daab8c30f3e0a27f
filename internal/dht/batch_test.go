package dht

import (
	"errors"
	"fmt"
	"testing"
)

func TestBatchGetMatchesGet(t *testing.T) {
	s := mustStore("d0", Options{Shards: 8})
	for i := uint64(0); i < 100; i += 2 {
		if err := s.Put(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]uint64, 0, 120)
	for i := uint64(0); i < 110; i++ {
		keys = append(keys, i)
	}
	keys = append(keys, 4, 4) // duplicates are served from the same shard visit
	vals, oks, visits, err := s.BatchGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if visits <= 0 || visits > s.NumShards() {
		t.Fatalf("shard visits = %d, want in (0, %d]", visits, s.NumShards())
	}
	for i, k := range keys {
		wantV, wantOK, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if oks[i] != wantOK || string(vals[i]) != string(wantV) {
			t.Fatalf("key %d: batch %q,%v vs single %q,%v", k, vals[i], oks[i], wantV, wantOK)
		}
	}
}

func TestBatchGetGroupsByShard(t *testing.T) {
	s := mustStore("d0", Options{Shards: 4})
	var keys []uint64
	for i := uint64(0); i < 64; i++ {
		keys = append(keys, i)
		if err := s.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	_, _, visits, err := s.BatchGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if visits != 4 {
		t.Fatalf("64 keys over 4 shards took %d shard visits, want 4", visits)
	}
	after := s.Stats()
	if got := after.ShardVisits - before.ShardVisits; got != 4 {
		t.Fatalf("ShardVisits grew by %d, want 4", got)
	}
	if after.Reads-before.Reads != 64 {
		t.Fatalf("Reads grew by %d, want 64", after.Reads-before.Reads)
	}
	if after.BatchReads-before.BatchReads != 1 {
		t.Fatalf("BatchReads grew by %d, want 1", after.BatchReads-before.BatchReads)
	}
}

// TestBatchPutMatchesPut: a batch that names a key twice leaves what the
// same puts issued one by one leave — the later pair wins.
func TestBatchPutMatchesPut(t *testing.T) {
	batched := mustStore("b", Options{Shards: 4})
	single := mustStore("s", Options{Shards: 4})
	var pairs []Pair
	for i := uint64(0); i < 32; i++ {
		pairs = append(pairs, Pair{Key: i % 16, Value: []byte{byte(i)}})
	}
	if _, err := batched.BatchPut(pairs); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := single.Put(p.Key, p.Value); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 16; i++ {
		bv, bok, err := batched.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		sv, sok, err := single.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if bok != sok || string(bv) != string(sv) {
			t.Fatalf("key %d: batched %q,%v vs single %q,%v", i, bv, bok, sv, sok)
		}
	}
}

func TestBatchPutCopiesValues(t *testing.T) {
	s := mustStore("d0", Options{})
	buf := []byte{1, 2, 3}
	if _, err := s.BatchPut([]Pair{{Key: 7, Value: buf}}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	v, _, _ := s.Get(7)
	if v[0] != 1 {
		t.Fatal("store aliases caller buffer")
	}
}

func TestBatchWriteFrozen(t *testing.T) {
	s := mustStore("d0", Options{})
	s.Freeze()
	if _, err := s.BatchPut([]Pair{{Key: 1, Value: []byte("a")}}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("BatchPut on frozen store: %v, want ErrFrozen", err)
	}
	if _, _, _, err := s.BatchGet([]uint64{1}); err != nil {
		t.Fatalf("BatchGet on frozen store: %v, want nil", err)
	}
}

func TestBatchGetFailoverWithReplication(t *testing.T) {
	s := mustStore("d0", Options{Shards: 4, Replicate: true})
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i)
		if err := s.Put(uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		s.FailShard(i)
	}
	vals, oks, _, err := s.BatchGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !oks[i] || vals[i][0] != byte(k) {
			t.Fatalf("key %d lost after failover: %v %v", k, vals[i], oks[i])
		}
	}
	if st := s.Stats(); st.Failovers < int64(len(keys)) {
		t.Fatalf("failovers = %d, want >= %d", st.Failovers, len(keys))
	}
}

func TestBatchGetUnreplicatedFailure(t *testing.T) {
	s := mustStore("d0", Options{Shards: 2})
	keys := make([]uint64, 32)
	for i := range keys {
		keys[i] = uint64(i)
		if err := s.Put(uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.FailShard(0)
	s.FailShard(1)
	if _, _, _, err := s.BatchGet(keys); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("BatchGet on failed unreplicated store: %v, want ErrUnavailable", err)
	}
}

func TestCachePeekFill(t *testing.T) {
	s := mustStore("d0", Options{})
	if err := s.Put(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	c := NewCache(s)
	if _, _, cached := c.Peek(1); cached {
		t.Fatal("empty cache reported an entry")
	}
	c.Fill(1, []byte("a"), true)
	c.Fill(2, nil, false)
	if v, ok, cached := c.Peek(1); !cached || !ok || string(v) != "a" {
		t.Fatalf("peek(1) = %q,%v,%v", v, ok, cached)
	}
	if _, ok, cached := c.Peek(2); !cached || ok {
		t.Fatal("known-absent key not served from cache")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", c.Hits(), c.Misses())
	}
}
