package dht

import (
	"bytes"
	"testing"
)

// TestBackendsBatchDelete pins the BatchDelete contract on every engine:
// deleted keys are gone from reads and Range, absent keys are ignored, and
// the façade keeps the replica in step (a failover after the delete must not
// resurrect the key).
func TestBackendsBatchDelete(t *testing.T) {
	for _, kind := range backendCases() {
		t.Run(string(kind), func(t *testing.T) {
			s := storeForBackend(t, kind, Options{Shards: 4, Replicate: true})
			for k := uint64(0); k < 32; k++ {
				if err := s.Put(k, []byte{byte(k), byte(k)}); err != nil {
					t.Fatal(err)
				}
			}
			// Group the doomed keys (plus one absent key) by shard and
			// delete them shard by shard, as a migration does.
			doomed := map[int][]uint64{}
			shards := s.NumShards()
			for k := uint64(0); k < 32; k += 2 {
				doomed[s.shardIndexFor(k)] = append(doomed[s.shardIndexFor(k)], k)
			}
			for shard, keys := range doomed {
				if err := s.deleteShard(shard, append(keys, 1<<40)); err != nil {
					t.Fatal(err)
				}
			}
			for k := uint64(0); k < 32; k++ {
				v, ok, err := s.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if deleted := k%2 == 0; ok == deleted {
					t.Fatalf("key %d: ok=%v after deleting evens", k, ok)
				} else if !deleted && !bytes.Equal(v, []byte{byte(k), byte(k)}) {
					t.Fatalf("key %d: surviving value %v", k, v)
				}
			}
			// The replica must agree: fail every shard and read the
			// survivors from the replicas.
			for shard := 0; shard < shards; shard++ {
				s.FailShard(shard)
			}
			for k := uint64(0); k < 32; k++ {
				_, ok, err := s.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if deleted := k%2 == 0; ok == deleted {
					t.Fatalf("key %d: replica ok=%v after delete", k, ok)
				}
			}
		})
	}
}

// TestStoreRebalanceMigratesAcrossBackends is the dht-level acceptance of
// shard migration: fill a store under hash placement (including
// overwritten values), rebalance it onto the ownership-affine placement, and
// require every key to read back byte-identically from its new shard on all
// three engines — with the placement and shard->machine map swapped.  A
// replicated store must have migrated its replica too: with every shard
// failed, every key still reads back byte-identically, from the replicas.
func TestStoreRebalanceMigratesAcrossBackends(t *testing.T) {
	const keys = 128
	own := NewOwnership(4, skewedTestWeights(keys))
	for _, kind := range backendCases() {
		for _, replicate := range []bool{false, true} {
			name := string(kind)
			if replicate {
				name += "/replicated"
			}
			t.Run(name, func(t *testing.T) {
				s := storeForBackend(t, kind, Options{Shards: 8, Placement: HashRandom(), Replicate: replicate})
				want := map[uint64][]byte{}
				for k := uint64(0); k < keys; k++ {
					v := []byte{byte(k), byte(k >> 1)}
					if err := s.Put(k, v); err != nil {
						t.Fatal(err)
					}
					want[k] = v
				}
				// An overwritten value must migrate as its latest version.
				for k := uint64(0); k < 8; k++ {
					want[k] = append(want[k], 0xEE)
					if err := s.Put(k, want[k]); err != nil {
						t.Fatal(err)
					}
				}

				next := OwnershipPlacement(own)
				st, err := s.Rebalance(next)
				if err != nil {
					t.Fatal(err)
				}
				if st.KeysMoved == 0 || st.BytesMoved == 0 || st.ShardsTouched == 0 {
					t.Fatalf("hash->weighted rebalance moved nothing: %+v", st)
				}
				if s.Placement().Name() != "weighted" {
					t.Fatalf("placement %q after rebalance, want weighted", s.Placement().Name())
				}

				// Every key reads back byte-identically, and each key now
				// lives on the shard the new placement routes it to (Range
				// agrees).
				readAll := func(when string) {
					t.Helper()
					for k, v := range want {
						got, ok, err := s.Get(k)
						if err != nil || !ok || !bytes.Equal(got, v) {
							t.Fatalf("key %d %s: %v %v %v, want %v", k, when, got, ok, err, v)
						}
					}
				}
				readAll("after migration")
				seen := 0
				for shard := 0; shard < s.NumShards(); shard++ {
					s.backend.Range(shard, func(k uint64, v []byte) bool {
						if home := next.ShardFor(k, s.NumShards()); home != shard {
							t.Errorf("key %d found on shard %d, new placement says %d", k, shard, home)
						}
						if !s.LocalTo(own.OwnerOf(k), k) {
							t.Errorf("key %d not co-located with its owner %d after migration", k, own.OwnerOf(k))
						}
						seen++
						return true
					})
				}
				if seen != keys {
					t.Fatalf("found %d keys after migration, want %d", seen, keys)
				}

				// A rebalance onto the placement already installed moves
				// nothing.
				st2, err := s.Rebalance(next)
				if err != nil {
					t.Fatal(err)
				}
				if st2.KeysMoved != 0 {
					t.Fatalf("idempotent rebalance still moved %d keys", st2.KeysMoved)
				}

				if !replicate {
					return
				}
				for shard := 0; shard < s.NumShards(); shard++ {
					s.FailShard(shard)
				}
				readAll("from the replicas after migration")
				if fo := s.Stats().Failovers; fo != keys {
					t.Fatalf("Failovers = %d, want %d: every read served by a replica", fo, keys)
				}
			})
		}
	}
}

// TestStoreRebalanceErrors pins the failure modes: a nil placement and a
// closed store are rejected.
func TestStoreRebalanceErrors(t *testing.T) {
	s, err := NewStore("d0", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rebalance(nil); err == nil {
		t.Fatal("nil placement accepted")
	}
	s.Close()
	if _, err := s.Rebalance(HashRandom()); err == nil {
		t.Fatal("rebalance on a closed store accepted")
	}
}

// TestDiskBatchDeleteSurvivesReopen checks the tombstone records: deletes
// must replay — reopening the shard logs after a migration's deletes shows
// the post-delete state, not the resurrected keys.
func TestDiskBatchDeleteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 2, Backend: BackendDisk, DiskDir: dir}
	s, err := NewStore("d0", opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 16; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	for shard := 0; shard < s.NumShards(); shard++ {
		var dead []uint64
		s.backend.Range(shard, func(k uint64, _ []byte) bool {
			if k%2 == 0 {
				dead = append(dead, k)
			}
			return true
		})
		if err := s.backend.BatchDelete(shard, dead); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	reopened, err := NewStore("d0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for k := uint64(0); k < 16; k++ {
		_, ok, err := reopened.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if deleted := k%2 == 0; ok == deleted {
			t.Fatalf("key %d after replay: ok=%v, deletes must survive reopen", k, ok)
		}
	}
}

// skewedTestWeights is a hub-heavy weight vector (mirrors the ampc test
// helper): a few low keys carry most of the weight.
func skewedTestWeights(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	if n > 3 {
		w[0], w[1], w[2] = n/2, n/3, n/4
	}
	return w
}
