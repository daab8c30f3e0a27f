package dht

import "sync"

// Shard failure and replication.
//
// The engines only store bytes; what a failed shard serves is decided here,
// once for every backend.  With Options.Replicate the store keeps a second
// engine of the primary's kind as the replica (disk logs in a replica/
// subdirectory of DiskDir, a second loopback server for rpc) and every write
// — Put and BatchPut — reaches the primary and then the replica under the shard's mirror lock, so that concurrent writes
// reach both engines in the same order.  Each shard has a down flag, set by FailShard or by a
// FaultPlan crash window.  A read visit to a down shard is served by the
// replica and counted as a failover, or fails with ErrUnavailable when there
// is none.  Writes do not fail over: they keep reaching both engines while a
// shard is down, so the primary never falls behind and RecoverShard only
// clears the flag.  Len, Range and BackendStats read the primary.
//
// Every shard visit starts with the FaultPlan's draws (faultInjector), before
// it is routed: the crash read clock, the transient and fatal draws of a
// read, the transient draw of a write.  A retry is a visit of its own, so it
// consumes the occurrence its failed attempt drew and finds it clean.

// FailShard simulates the loss of shard i (taken modulo the shard count, a
// negative i counting back from the last shard).  With replication enabled
// reads continue to succeed and are counted as failovers; without
// replication reads of keys on the failed shard return ErrUnavailable.
func (s *Store) FailShard(i int) { s.down[wrapShard(i, s.numShards)].Store(true) }

// RecoverShard undoes FailShard.  Writes reached the primary all along, so
// recovery only clears the shard's down flag; the error is always nil.
func (s *Store) RecoverShard(i int) error {
	s.down[wrapShard(i, s.numShards)].Store(false)
	return nil
}

// wrapShard maps any integer onto one of n shard indexes.
func wrapShard(i, n int) int { return (i%n + n) % n }

// engines returns the primary engine and the replica, nil on an
// unreplicated store.
func (s *Store) engines() [2]ShardBackend { return [2]ShardBackend{s.backend, s.replica} }

// readEngine routes a read visit to shard idx: the primary, or the replica
// of a down shard (failover), or ErrUnavailable when a down shard has none.
func (s *Store) readEngine(idx int) (e ShardBackend, failover bool, err error) {
	switch {
	case !s.down[idx].Load():
		return s.backend, false, nil
	case s.replica == nil:
		return nil, false, ErrUnavailable
	}
	return s.replica, true, nil
}

// getShard is one read visit of key on shard idx.
func (s *Store) getShard(idx int, key uint64) (v []byte, ok, failover bool, err error) {
	if s.faults != nil {
		if err := s.faults.beforeRead(idx, key); err != nil {
			return nil, false, false, err
		}
	}
	e, failover, err := s.readEngine(idx)
	if err != nil {
		return nil, false, false, err
	}
	v, ok, err = e.Get(idx, key)
	return v, ok, failover, err
}

// batchGetShard is one read visit of keys on shard idx; failovers counts the
// keys a replica served.
func (s *Store) batchGetShard(idx int, keys []uint64) (vals [][]byte, oks []bool, failovers int, err error) {
	if s.faults != nil {
		if err := s.faults.beforeRead(idx, keys...); err != nil {
			return nil, nil, 0, err
		}
	}
	e, failover, err := s.readEngine(idx)
	if err != nil {
		return nil, nil, 0, err
	}
	if vals, oks, err = e.BatchGet(idx, keys); err != nil {
		return nil, nil, 0, err
	}
	if failover {
		failovers = len(keys)
	}
	return vals, oks, failovers, nil
}

// paddedMutex is a mirror lock on a cache line of its own: writers of
// neighbouring shards share none.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// mirrored applies write to the primary and then, on a replicated store, to
// the replica, holding shard idx's mirror lock across both.
func (s *Store) mirrored(idx int, write func(e ShardBackend) error) error {
	if s.replica == nil {
		return write(s.backend)
	}
	mu := &s.mirror[idx]
	mu.Lock()
	defer mu.Unlock()
	if err := write(s.backend); err != nil {
		return err
	}
	return write(s.replica)
}

// putShard is one write visit of key on shard idx.
func (s *Store) putShard(idx int, key uint64, value []byte) error {
	if s.faults != nil {
		if err := s.faults.beforeWrite(idx, []Pair{{Key: key}}); err != nil {
			return err
		}
	}
	if s.replica == nil { // the hottest write skips mirrored's closure call
		return s.backend.Put(idx, key, value)
	}
	return s.mirrored(idx, func(e ShardBackend) error { return e.Put(idx, key, value) })
}

// writeShard is one write visit of pairs on shard idx.
func (s *Store) writeShard(idx int, pairs []Pair) error {
	if s.faults != nil {
		if err := s.faults.beforeWrite(idx, pairs); err != nil {
			return err
		}
	}
	return s.mirrored(idx, func(e ShardBackend) error { return e.BatchWrite(idx, pairs) })
}
