package dht

import (
	"errors"
	"fmt"
)

// Batched operations.
//
// Single-key Get/Put pay one shard visit, one hash and one latency
// round trip per key.  The batched variants group their keys by shard and
// visit every shard exactly once — one backend call, which for the mem and
// disk backends is one lock acquisition and for the rpc backend one wire
// round trip; the latency model charges one BatchShardLatency per shard
// visited plus a BatchPerKey marginal per key, which is how the per-request
// overhead amortization of §5.3 (the source of the practical AMPC wins over
// MPC) is modeled.  With a machine-affine placement policy the batched
// operations of a View (or the deprecated *From variants) additionally split
// the shard visits into local (co-located with the calling machine) and
// remote, charging each side its own latency.  Replication and failover
// behave exactly as in the single-key operations: writes mirror into the
// replica, reads of a failed shard fail over to the replica (counted as
// failovers) or return ErrUnavailable when the store is unreplicated.

// Visits classifies the shard visits of one batched operation.
type Visits struct {
	// Local is the number of visited shards co-located with the caller.
	Local int
	// Remote is the number of visited shards requiring a network round trip.
	Remote int
}

// Total returns the total number of shard visits.
func (v Visits) Total() int { return v.Local + v.Remote }

// shardGroups groups the positions [0, n) of a batch — keyAt(i) being the key
// at position i — by shard with a counting sort: order holds every position,
// shard 0's first, each shard's in input order, and shard idx's positions are
// order[starts[idx]:starts[idx+1]].  One allocation whatever the number of
// shards touched.
func (s *Store) shardGroups(n int, keyAt func(i int) uint64) (order, starts []int32) {
	buf := make([]int32, 2*n+s.numShards+1)
	shardOf, order, starts := buf[:n], buf[n:2*n], buf[2*n:]
	for i := range shardOf {
		idx := s.shardIndexFor(keyAt(i))
		shardOf[i] = int32(idx)
		starts[idx+1]++
	}
	for idx := 0; idx < s.numShards; idx++ {
		starts[idx+1] += starts[idx]
	}
	// Place each position at its shard's cursor; starts[idx] ends up at the
	// shard's end, so shift the boundaries back afterwards.
	for i, idx := range shardOf {
		order[starts[idx]] = int32(i)
		starts[idx]++
	}
	copy(starts[1:], starts[:s.numShards])
	starts[0] = 0
	return order, starts
}

// BatchGet returns the values stored under keys, visiting each shard once.
// vals[i] and oks[i] correspond to keys[i]; duplicate keys are served from
// the same shard visit.  shardVisits is the number of distinct shards (lock
// acquisitions) the batch touched.  The returned slices must not be modified.
func (s *Store) BatchGet(keys []uint64) (vals [][]byte, oks []bool, shardVisits int, err error) {
	vals, oks, visits, err := s.batchGetFrom(-1, keys)
	return vals, oks, visits.Total(), err
}

// batchGetFrom is BatchGet performed by the given machine (via Store.View):
// visits to shards co-located with the machine are classified as local.  A
// negative machine is an anonymous, always-remote caller.
func (s *Store) batchGetFrom(machine int, keys []uint64) (vals [][]byte, oks []bool, visits Visits, err error) {
	vals = make([][]byte, len(keys))
	oks = make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, oks, Visits{}, nil
	}
	order, starts := s.shardGroups(len(keys), func(i int) uint64 { return keys[i] })
	grouped := make([]uint64, len(keys)) // keys in shard order: each shard's request is a sub-slice
	for i, p := range order {
		grouped[i] = keys[p]
	}
	c := s.countersFor(machine)
	var bytesRead, remoteBytes, missed, failedOver int64
	var localKeys, remoteKeys int64
	// flush publishes the batch's counters; it runs exactly once, whether
	// the batch completes or aborts on a failed shard.
	flush := func() {
		c.shardVisits.Add(int64(visits.Total()))
		c.batchReads.Add(1)
		c.bytesRead.Add(bytesRead)
		c.misses.Add(missed)
		c.failovers.Add(failedOver)
		c.localReads.Add(localKeys)
		c.remoteReads.Add(remoteKeys)
		c.remoteBytes.Add(remoteBytes)
	}
	countVisit := func(local bool, positions int) {
		if local {
			visits.Local++
			localKeys += int64(positions)
		} else {
			visits.Remote++
			remoteKeys += int64(positions)
		}
	}
	for idx := 0; idx < s.numShards; idx++ {
		positions := order[starts[idx]:starts[idx+1]]
		if len(positions) == 0 {
			continue
		}
		local := s.shardLocalTo(machine, idx)
		shardKeys := grouped[starts[idx]:starts[idx+1]:starts[idx+1]]
		var shardVals [][]byte
		var shardOKs []bool
		var failovers int
		err := s.withRetry(func() error {
			var aerr error
			shardVals, shardOKs, failovers, aerr = s.hedgedBatchGet(idx, shardKeys)
			return aerr
		})
		if err != nil {
			// Flush what the shards served before the failure so the
			// fault-tolerance counters stay consistent with the
			// single-key path: every requested key counts as a read, with
			// keys on shards never reached classified as remote.
			countVisit(local, len(positions))
			remoteKeys = int64(len(keys)) - localKeys
			flush()
			if errors.Is(err, ErrUnavailable) {
				return nil, nil, visits, fmt.Errorf("%w: key %d", ErrUnavailable, keys[positions[0]])
			}
			return nil, nil, visits, fmt.Errorf("dht: %s: batch get shard %d: %w", s.name, idx, err)
		}
		failedOver += int64(failovers)
		for i, p := range positions {
			v, ok := shardVals[i], shardOKs[i]
			vals[p] = v
			oks[p] = ok
			if ok {
				bytesRead += int64(len(v)) + 8
				if !local {
					remoteBytes += int64(len(v)) + 8
				}
			} else {
				missed++
			}
		}
		c.shardOps[idx].Add(int64(len(positions)))
		countVisit(local, len(positions))
	}
	flush()
	return vals, oks, visits, nil
}

// BatchPut stores all pairs, visiting each shard once.  Values are copied.
// It returns ErrFrozen after Freeze has been called.
func (s *Store) BatchPut(pairs []Pair) (shardVisits int, err error) {
	visits, err := s.batchWrite(-1, pairs)
	return visits.Total(), err
}

// batchWrite is BatchPut performed by the given machine (see putFrom).
func (s *Store) batchWrite(machine int, pairs []Pair) (Visits, error) {
	if s.frozen.Load() {
		return Visits{}, ErrFrozen
	}
	if len(pairs) == 0 {
		return Visits{}, nil
	}
	var bytesWritten int64
	for _, p := range pairs {
		bytesWritten += int64(len(p.Value)) + 8
	}
	order, starts := s.shardGroups(len(pairs), func(i int) uint64 { return pairs[i].Key })
	grouped := make([]Pair, len(pairs)) // pairs in shard order: each shard's request is a sub-slice
	for i, p := range order {
		grouped[i] = pairs[p]
	}
	c := s.countersFor(machine)
	var visits Visits
	var remoteBytes int64
	for idx := 0; idx < s.numShards; idx++ {
		shardPairs := grouped[starts[idx]:starts[idx+1]:starts[idx+1]]
		if len(shardPairs) == 0 {
			continue
		}
		local := s.shardLocalTo(machine, idx)
		if !local {
			for _, p := range shardPairs {
				remoteBytes += int64(len(p.Value)) + 8
			}
		}
		if err := s.withRetry(func() error {
			return s.backend.BatchWrite(idx, shardPairs)
		}); err != nil {
			return visits, err
		}
		c.shardOps[idx].Add(int64(len(shardPairs)))
		if local {
			visits.Local++
		} else {
			visits.Remote++
		}
	}
	c.shardVisits.Add(int64(visits.Total()))
	c.writes.Add(int64(len(pairs)))
	c.batchWrites.Add(1)
	c.bytesWritten.Add(bytesWritten)
	c.remoteBytes.Add(remoteBytes)
	return visits, nil
}
