package dht

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// mustStore is NewStore panicking on error, for tests whose options are
// statically known to be valid.
func mustStore(name string, opts Options) *Store {
	s, err := NewStore(name, opts)
	if err != nil {
		panic(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustStore("d0", Options{Shards: 4})
	if err := s.Put(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get(1)
	if err != nil || !ok || string(v) != "hello" {
		t.Fatalf("get = %q,%v,%v", v, ok, err)
	}
	_, ok, err = s.Get(2)
	if err != nil || ok {
		t.Fatalf("missing key reported present")
	}
	st := s.Stats()
	if st.Reads != 2 || st.Writes != 1 || st.Misses != 1 || st.Keys != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPutCopiesValue(t *testing.T) {
	s := mustStore("d0", Options{})
	buf := []byte{1, 2, 3}
	s.Put(7, buf)
	buf[0] = 99
	v, _, _ := s.Get(7)
	if v[0] != 1 {
		t.Fatal("store aliases caller buffer")
	}
}

func TestFreeze(t *testing.T) {
	s := mustStore("d0", Options{})
	s.Put(1, []byte("a"))
	s.Freeze()
	if !s.Frozen() {
		t.Fatal("not frozen")
	}
	if err := s.Put(2, []byte("b")); !errors.Is(err, ErrFrozen) {
		t.Fatalf("put after freeze: %v", err)
	}
	// Reads still work.
	if _, ok, _ := s.Get(1); !ok {
		t.Fatal("read after freeze failed")
	}
}

func TestLenAndRange(t *testing.T) {
	s := mustStore("d0", Options{Shards: 3})
	for i := uint64(0); i < 100; i++ {
		s.Put(i, []byte{byte(i)})
	}
	if s.Len() != 100 {
		t.Fatalf("len %d", s.Len())
	}
	count := 0
	s.Range(func(k uint64, v []byte) bool {
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("range visited %d", count)
	}
	count = 0
	s.Range(func(k uint64, v []byte) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early-exit range visited %d", count)
	}
}

func TestFailShardWithoutReplication(t *testing.T) {
	s := mustStore("d0", Options{Shards: 1})
	s.Put(1, []byte("x"))
	s.FailShard(0)
	_, _, err := s.Get(1)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("expected ErrUnavailable, got %v", err)
	}
	s.RecoverShard(0)
	// Without replication the data on the failed shard survives in this
	// simulation only because the primary map is untouched.
	if _, ok, err := s.Get(1); err != nil || !ok {
		t.Fatalf("recovered read %v %v", ok, err)
	}
}

func TestFailShardWithReplication(t *testing.T) {
	s := mustStore("d0", Options{Shards: 2, Replicate: true})
	for i := uint64(0); i < 50; i++ {
		s.Put(i, []byte{byte(i)})
	}
	s.FailShard(0)
	s.FailShard(1)
	for i := uint64(0); i < 50; i++ {
		v, ok, err := s.Get(i)
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("replicated read of %d failed: %v %v", i, ok, err)
		}
	}
	if s.Stats().Failovers != 50 {
		t.Fatalf("failovers = %d, want 50", s.Stats().Failovers)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := mustStore("d0", Options{Shards: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := uint64(w*1000 + i)
				if err := s.Put(k, []byte(fmt.Sprintf("%d", k))); err != nil {
					t.Error(err)
					return
				}
				if v, ok, err := s.Get(k); err != nil || !ok || string(v) != fmt.Sprintf("%d", k) {
					t.Errorf("get %d = %q %v %v", k, v, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8000 {
		t.Fatalf("len %d", s.Len())
	}
	st := s.Stats()
	if st.Reads != 8000 || st.Writes != 8000 {
		t.Fatalf("stats %+v", st)
	}
	if st.MaxShardOps <= 0 || st.MaxShardOps > st.Reads+st.Writes {
		t.Fatalf("contention stat out of range: %d", st.MaxShardOps)
	}
}

func TestStatsBytes(t *testing.T) {
	s := mustStore("d0", Options{})
	s.Put(1, make([]byte, 100))
	s.Get(1)
	st := s.Stats()
	if st.BytesWritten < 100 || st.BytesRead < 100 {
		t.Fatalf("byte accounting too small: %+v", st)
	}
	if s.TotalBytes() != st.BytesRead+st.BytesWritten {
		t.Fatal("TotalBytes mismatch")
	}
}

func TestPropertyRoundTripArbitrary(t *testing.T) {
	s := mustStore("d0", Options{Shards: 5})
	f := func(key uint64, val []byte) bool {
		if err := s.Put(key, val); err != nil {
			return false
		}
		v, ok, err := s.Get(key)
		if err != nil || !ok {
			return false
		}
		if len(v) != len(val) {
			return false
		}
		for i := range v {
			if v[i] != val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheReadThrough(t *testing.T) {
	s := mustStore("d0", Options{})
	s.Put(1, []byte("v"))
	c := NewCache(s)
	for i := 0; i < 10; i++ {
		v, ok, err := c.Get(1)
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("cache get %q %v %v", v, ok, err)
		}
	}
	if c.Misses() != 1 || c.Hits() != 9 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	// Only a single read reached the store.
	if s.Stats().Reads != 1 {
		t.Fatalf("store reads %d, want 1", s.Stats().Reads)
	}
}

func TestCacheNegativeEntries(t *testing.T) {
	s := mustStore("d0", Options{})
	c := NewCache(s)
	for i := 0; i < 5; i++ {
		if _, ok, err := c.Get(42); ok || err != nil {
			t.Fatalf("absent key: %v %v", ok, err)
		}
	}
	if s.Stats().Reads != 1 {
		t.Fatalf("store reads %d, want 1 (absent keys should be cached)", s.Stats().Reads)
	}
	if c.Len() != 1 {
		t.Fatalf("cache len %d", c.Len())
	}
}

func TestCacheConcurrent(t *testing.T) {
	s := mustStore("d0", Options{})
	for i := uint64(0); i < 100; i++ {
		s.Put(i, []byte{byte(i)})
	}
	c := NewCache(s)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 100; i++ {
				v, ok, err := c.Get(i)
				if err != nil || !ok || v[0] != byte(i) {
					t.Errorf("concurrent cache get %d failed", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Hits()+c.Misses() != 800 {
		t.Fatalf("cache op count %d", c.Hits()+c.Misses())
	}
}
