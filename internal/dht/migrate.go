package dht

import "fmt"

// Shard migration.
//
// Swapping a store's placement policy is only sound if every key's bytes
// move to the shard the new policy routes it to — otherwise reads after the
// swap miss data written before it.  Store.Rebalance performs that move
// with the façade's shard visits (a BatchWrite and a BatchDelete through the
// ShardBackend seam, mirrored into the replica, so mem, disk and rpc all
// migrate the same way) and then swaps the placement and the memoized
// shard→machine map.  The caller is responsible for quiescence and the
// modeled cost of the move: ampc's Job.Rebalance serializes against running
// rounds and charges the migration's fixed and per-byte cost to the job's
// clock.  No value changes, so a Cache in front of the store stays valid
// across the move.

// MigrationStats summarizes one Store.Rebalance.
type MigrationStats struct {
	// KeysMoved is the number of keys whose shard changed.
	KeysMoved int64
	// BytesMoved is the payload moved between shards (value bytes plus the
	// 8-byte key header, matching the store's byte counters).
	BytesMoved int64
	// ShardsTouched is the number of distinct shards written to or deleted
	// from.
	ShardsTouched int
}

// Rebalance migrates the store's data to the shards chosen by next and
// installs next as the store's placement.  Keys whose shard is unchanged
// are untouched; moved keys are copied to their new shard first and deleted
// from the old one second, so a concurrent reader of either shard sees the
// key at least once (never zero times).
//
// Rebalance works on a frozen store — migration relocates bytes without
// changing any key's value, so it does not violate the round discipline —
// but not on a closed one.  It is NOT safe to call concurrently with reads
// or writes of the same store: the placement swap is unsynchronized by
// design (the hot paths read it lock-free), so the caller must quiesce the
// store first, as ampc's Job.Rebalance does.  A shard that cannot be read
// (ShardBackend.Range's error) fails the call while it is still planning,
// before anything has moved.
func (s *Store) Rebalance(next Placement) (MigrationStats, error) {
	var st MigrationStats
	if next == nil {
		return st, fmt.Errorf("dht: rebalance %s: nil placement", s.name)
	}
	if s.closed.Load() {
		return st, fmt.Errorf("dht: rebalance %s: store is closed", s.name)
	}
	// Plan: collect every key whose shard changes, grouped by destination
	// (copies) and source (deletes).  Values are copied out of the backend
	// before any write, so the move is snapshot-consistent even on backends
	// whose Range yields live buffers.
	writes := make(map[int][]Pair)
	deletes := make(map[int][]uint64)
	touched := make(map[int]bool)
	for shard := 0; shard < s.numShards; shard++ {
		_, err := s.backend.Range(shard, func(k uint64, v []byte) bool {
			to := next.ShardFor(k, s.numShards)
			if to == shard {
				return true
			}
			writes[to] = append(writes[to], Pair{Key: k, Value: append([]byte(nil), v...)})
			deletes[shard] = append(deletes[shard], k)
			touched[to] = true
			touched[shard] = true
			st.KeysMoved++
			st.BytesMoved += int64(len(v)) + 8
			return true
		})
		if err != nil {
			return MigrationStats{}, fmt.Errorf("dht: rebalance %s: reading shard %d: %w", s.name, shard, err)
		}
	}
	// Apply: copy before delete.
	for shard, pairs := range writes {
		if err := s.writeShard(shard, pairs); err != nil {
			return st, fmt.Errorf("dht: rebalance %s: copying to shard %d: %w", s.name, shard, err)
		}
	}
	for shard, keys := range deletes {
		if err := s.deleteShard(shard, keys); err != nil {
			return st, fmt.Errorf("dht: rebalance %s: deleting from shard %d: %w", s.name, shard, err)
		}
	}
	st.ShardsTouched = len(touched)
	s.placement = next
	for i := range s.shardMachine {
		s.shardMachine[i] = next.MachineFor(i, s.numShards)
	}
	return st, nil
}
