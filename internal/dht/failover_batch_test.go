package dht

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Failover under the batch path: FailShard before/mid-batch must surface the
// same errors and counters as the single-key path — ErrUnavailable on an
// unreplicated failed shard, replica-served reads counted as failovers, and
// consistent aggregate stats either way.

// keysOnShard returns count keys that all hash to the given shard.
func keysOnShard(s *Store, shard, count int) []uint64 {
	var out []uint64
	for k := uint64(0); len(out) < count; k++ {
		if s.shardIndexFor(k) == shard {
			out = append(out, k)
		}
	}
	return out
}

// keysOffShard returns count keys that avoid the given shard.
func keysOffShard(s *Store, shard, count int) []uint64 {
	var out []uint64
	for k := uint64(0); len(out) < count; k++ {
		if s.shardIndexFor(k) != shard {
			out = append(out, k)
		}
	}
	return out
}

func TestBatchGetUnreplicatedFailureSurfacesUnavailable(t *testing.T) {
	s := mustStore("d0", Options{Shards: 4})
	onFailed := keysOnShard(s, 2, 8)
	offFailed := keysOffShard(s, 2, 24)
	keys := append(append([]uint64(nil), offFailed...), onFailed...)
	for _, k := range keys {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	s.FailShard(2)

	vals, oks, visits, err := s.BatchGet(keys)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("BatchGet over a failed unreplicated shard: err = %v, want ErrUnavailable", err)
	}
	if vals != nil || oks != nil {
		t.Fatal("failed batch should not return partial values")
	}
	// The error names a key that actually lives on the failed shard.
	var wantKey uint64
	if _, err2 := fmt.Sscanf(err.Error(), "dht: shard unavailable: key %d", &wantKey); err2 != nil {
		t.Fatalf("error %q does not name the unavailable key", err)
	}
	if s.shardIndexFor(wantKey) != 2 {
		t.Fatalf("error names key %d on shard %d, want a key of failed shard 2", wantKey, s.shardIndexFor(wantKey))
	}
	// Shards visited before the failure was discovered are still counted,
	// and every requested key is accounted as a read, exactly as if the
	// single-key path had run until the failure.
	after := s.Stats()
	if got := after.Reads - before.Reads; got != int64(len(keys)) {
		t.Fatalf("Reads grew by %d, want %d", got, len(keys))
	}
	if got := after.ShardVisits - before.ShardVisits; got != int64(visits) {
		t.Fatalf("ShardVisits grew by %d, want the %d visits reported", got, visits)
	}
	if visits < 1 || visits > 4 {
		t.Fatalf("visits = %d, want within [1, shards]", visits)
	}
	if after.BatchReads-before.BatchReads != 1 {
		t.Fatal("failed BatchGet must still count as one batch read")
	}
	if after.Failovers != before.Failovers {
		t.Fatal("unreplicated failure must not count failovers")
	}

	// A batch that avoids the failed shard keeps succeeding.
	vals, oks, _, err = s.BatchGet(offFailed)
	if err != nil {
		t.Fatalf("batch avoiding the failed shard: %v", err)
	}
	for i, k := range offFailed {
		if !oks[i] || len(vals[i]) != 1 || vals[i][0] != byte(k) {
			t.Fatalf("key %d misread after unrelated shard failure", k)
		}
	}
}

func TestBatchGetReplicatedFailureFailsOver(t *testing.T) {
	s := mustStore("d0", Options{Shards: 4, Replicate: true})
	onFailed := keysOnShard(s, 1, 6)
	offFailed := keysOffShard(s, 1, 10)
	keys := append(append([]uint64(nil), onFailed...), offFailed...)
	for _, k := range keys {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	s.FailShard(1)
	before := s.Stats()

	vals, oks, visits, err := s.BatchGet(keys)
	if err != nil {
		t.Fatalf("replicated batch read should fail over, got %v", err)
	}
	if visits < 2 {
		t.Fatalf("visits = %d, want at least the failed shard plus one healthy shard", visits)
	}
	for i, k := range keys {
		if !oks[i] || len(vals[i]) != 1 || vals[i][0] != byte(k) {
			t.Fatalf("key %d: got %v,%v after failover", k, vals[i], oks[i])
		}
	}
	after := s.Stats()
	if got := after.Failovers - before.Failovers; got != int64(len(onFailed)) {
		t.Fatalf("Failovers grew by %d, want %d (one per key on the failed shard)", got, len(onFailed))
	}
	if got := after.Reads - before.Reads; got != int64(len(keys)) {
		t.Fatalf("Reads grew by %d, want %d", got, len(keys))
	}
	if got := after.Misses - before.Misses; got != 0 {
		t.Fatalf("Misses grew by %d, want 0", got)
	}
}

func TestBatchGetMidBatchFailureMatchesSingleKeyAccounting(t *testing.T) {
	// "Mid-batch": the failed shard is reached after healthy shards were
	// already served (shards are visited in index order), so the partial
	// byte and miss counters flushed by the failure path must reflect the
	// shards served before it.
	s := mustStore("d0", Options{Shards: 8})
	lastShard := 7
	healthy := keysOffShard(s, lastShard, 32)
	broken := keysOnShard(s, lastShard, 4)
	keys := append(append([]uint64(nil), healthy...), broken...)
	for _, k := range healthy {
		if err := s.Put(k, []byte{1, 2, 3, 4}); err != nil { // 4 bytes + 8 header
			t.Fatal(err)
		}
	}
	before := s.Stats()
	s.FailShard(lastShard)

	_, _, visits, err := s.BatchGet(keys)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if visits != 8 {
		t.Fatalf("visits = %d, want all 8 shards reached before the failure surfaced", visits)
	}
	after := s.Stats()
	// All healthy keys were served (and their bytes counted) before the
	// failed shard aborted the batch.
	wantBytes := int64(len(healthy)) * 12
	if got := after.BytesRead - before.BytesRead; got != wantBytes {
		t.Fatalf("BytesRead grew by %d, want %d (healthy shards served pre-failure)", got, wantBytes)
	}
	if got := after.Misses - before.Misses; got != 0 {
		t.Fatalf("Misses grew by %d, want 0", got)
	}
}

func TestBatchPutDuringFailureKeepsReplicaConsistent(t *testing.T) {
	// Writes do not fail over: like the single-key path, BatchPut keeps
	// writing through to primary and replica while a shard is marked
	// failed, so the primary is complete when RecoverShard brings it back.
	for _, kind := range backendCases() {
		t.Run(string(kind), func(t *testing.T) {
			s := storeForBackend(t, kind, Options{Shards: 4, Replicate: true})
			s.FailShard(3)
			pairs := make([]Pair, 0, 32)
			for k := uint64(0); k < 32; k++ {
				pairs = append(pairs, Pair{Key: k, Value: []byte{byte(k)}})
			}
			before := s.Stats()
			visits, err := s.BatchPut(pairs)
			if err != nil {
				t.Fatalf("BatchPut during shard failure: %v", err)
			}
			if visits != 4 {
				t.Fatalf("visits = %d, want 4", visits)
			}
			after := s.Stats()
			if got := after.Writes - before.Writes; got != 32 {
				t.Fatalf("Writes grew by %d, want 32", got)
			}
			// Reads of the failed shard are served by the replica, including
			// the writes that landed mid-failure.
			for k := uint64(0); k < 32; k++ {
				v, ok, err := s.Get(k)
				if err != nil || !ok || v[0] != byte(k) {
					t.Fatalf("key %d unreadable during failure: %v %v %v", k, v, ok, err)
				}
			}
			onFailed := int64(0)
			for k := uint64(0); k < 32; k++ {
				if s.shardIndexFor(k) == 3 {
					onFailed++
				}
			}
			failovers := s.Stats().Failovers
			if onFailed == 0 || failovers != onFailed {
				t.Fatalf("Failovers = %d, want %d: one per read of the failed shard", failovers, onFailed)
			}
			s.RecoverShard(3)
			for k := uint64(0); k < 32; k++ {
				v, ok, err := s.Get(k)
				if err != nil || !ok || v[0] != byte(k) {
					t.Fatalf("key %d lost after recovery: %v %v %v", k, v, ok, err)
				}
			}
			if fo := s.Stats().Failovers; fo != failovers {
				t.Fatalf("Failovers grew from %d to %d after recovery: the primary should serve", failovers, fo)
			}
		})
	}
}

func TestBatchPutFrozenAndEmptyBatches(t *testing.T) {
	s := mustStore("d0", Options{Shards: 4})
	if _, err := s.BatchPut(nil); err != nil {
		t.Fatalf("empty BatchPut: %v", err)
	}
	s.Freeze()
	if _, err := s.BatchPut([]Pair{{Key: 1, Value: []byte("x")}}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("BatchPut on frozen store: %v, want ErrFrozen", err)
	}
	if st := s.Stats(); st.Writes != 0 || st.BatchWrites != 0 {
		t.Fatalf("rejected batch writes must not count: %+v", st)
	}
}

// TestReplicaFollowsPrimaryUnderConcurrentWrites: writers racing on one key
// may leave any of their values, but the replica must hold the one the
// primary holds — a failover must not change what a key reads.
func TestReplicaFollowsPrimaryUnderConcurrentWrites(t *testing.T) {
	const writers, rounds = 8, 300
	for _, kind := range backendCases() {
		t.Run(string(kind), func(t *testing.T) {
			s := storeForBackend(t, kind, Options{Shards: 2, Replicate: true})
			for r := 0; r < rounds; r++ {
				key := uint64(r % 3)
				idx := s.shardIndexFor(key)
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						var err error
						if w%2 == 0 {
							err = s.Put(key, []byte{byte(w), byte(r)})
						} else {
							_, err = s.BatchPut([]Pair{{Key: key, Value: []byte{byte(w), byte(r)}}})
						}
						if err != nil {
							t.Error(err)
						}
					}(w)
				}
				wg.Wait()
				pv, _, perr := s.backend.Get(idx, key)
				rv, _, rerr := s.replica.Get(idx, key)
				if perr != nil || rerr != nil || !bytes.Equal(pv, rv) {
					t.Fatalf("round %d, key %d: primary holds %v (%v), replica %v (%v)", r, key, pv, perr, rv, rerr)
				}
			}
		})
	}
}
