package ampc

import (
	"fmt"
	"time"

	"ampcgraph/internal/dht"
	"ampcgraph/internal/simtime"
)

// Online ownership rebalancing.
//
// The weighted ownership table built by SetOwnership is static: it splits
// the keyspace by declared per-key weights (degrees) before any round runs.
// Observed load can disagree with it — search rounds walk far past the keys
// a machine owns, and caches shift where lookups actually land — so between
// pipeline segments the session can re-derive the boundaries from what the
// finished segment measured.  Rebalance folds the per-machine query counts
// (first-order) and modeled lookup latency (a sampled search-cost
// second-order weight) into a per-key cost vector, rebuilds the prefix-sum
// boundaries, migrates the affected shards of every weighted-placed store
// through the ShardBackend seam, invalidates exactly the migrated key spans
// from the per-machine caches, and charges the migration payload to the
// simulated clock.  Placement never changes results, so outputs stay
// byte-identical; only where keys live — and therefore which machine does
// which work — moves.

// RebalanceStats summarizes one Job.Rebalance call.
type RebalanceStats struct {
	// Moved reports whether a new ownership table was installed and shard
	// data migrated.  False means the call was a no-op: placement is not
	// weighted, no ownership table is declared, no load was observed since
	// the last rebalance, or the re-derived boundaries were unchanged.
	Moved bool
	// MigratedKeys / MigratedBytes total the shard data moved across all of
	// the session's weighted-placed stores.
	MigratedKeys  int64
	MigratedBytes int64
	// Changed is the set of key spans whose owner changed — exactly the
	// spans invalidated from the per-machine caches.
	Changed dht.RangeSet
	// Cost is the modeled migration time charged to the simulated clock.
	Cost time.Duration
}

// Rebalance re-derives the weighted ownership boundaries from the load
// observed since the last rebalance (or since the session was created) and
// migrates shard data accordingly, charging the migration to this job.  It
// is meant to be called between pipeline segments: it serializes against this
// job's rounds (the per-job run lock) and against every other job's in-flight
// rounds (the session's exclusive execution lock — rounds take it shared), so
// the migration never interleaves with a running round.  Partitioners and
// stores built after the call answer from the updated table, and plans
// compiled before it are dropped from the plan cache (the ownership
// generation they were compiled under is gone).
//
// Under any placement other than PlacementWeighted, or before any ownership
// table and observed load exist, Rebalance is a documented no-op that
// returns zero stats and a nil error — callers can run the same adaptive
// arm against every placement without branching.
func (j *Job) Rebalance() (RebalanceStats, error) {
	j.runMu.Lock()
	defer j.runMu.Unlock()
	s := j.Session
	var st RebalanceStats
	s.lifecycle.RLock()
	defer s.lifecycle.RUnlock()
	if s.closed.Load() || j.closed.Load() {
		return st, fmt.Errorf("ampc: rebalance: %w", ErrClosed)
	}
	s.execMu.Lock()
	defer s.execMu.Unlock()

	s.mu.Lock()
	old := s.ownership
	base := s.baseWeights
	load := s.observedLoadLocked()
	s.mu.Unlock()
	if s.cfg.Placement != PlacementWeighted || old == nil || load == nil {
		return st, nil
	}

	next := dht.RederiveBoundaries(old, load, base)
	changed := dht.ChangedSpans(old, next)

	// The observation window closes here whether or not the boundaries
	// moved: the next segment's load is measured against the table it
	// actually runs under.
	s.mu.Lock()
	for i := range s.machineQueries {
		s.machineQueries[i] = 0
		s.machineWork[i] = simtime.Work{}
	}
	s.mu.Unlock()
	if changed.Empty() {
		return st, nil
	}

	// Install the new table first so stores and partitioners created while
	// the migration below runs already answer from it, then migrate every
	// weighted-placed store.  Migration relocates bytes through backend
	// operations without touching the stores' write counters, so the cache
	// fences recorded at segment ends stay valid; the migrated spans are
	// invalidated explicitly instead.
	s.mu.Lock()
	s.ownership = next
	s.adaptive = true
	stores := append([]*dht.Store(nil), s.stores...)
	s.mu.Unlock()

	place := dht.OwnershipPlacement(next)
	for _, store := range stores {
		if store.Placement().Name() != place.Name() {
			continue
		}
		ms, err := store.Rebalance(place)
		if err != nil {
			return st, fmt.Errorf("ampc: rebalance: %w", err)
		}
		st.MigratedKeys += ms.KeysMoved
		st.MigratedBytes += ms.BytesMoved
		s.mu.Lock()
		for _, c := range s.caches[store] {
			if c != nil {
				c.InvalidateRange(changed)
			}
		}
		s.mu.Unlock()
	}

	// The ownership generation moves and every compiled plan dies with it:
	// plans embed span declarations derived from the old boundaries.
	s.ownGen.Add(1)

	st.Moved = true
	st.Changed = changed
	st.Cost = s.cfg.Model.Price(simtime.Work{simtime.Migrations: 1, simtime.MigratedBytes: st.MigratedBytes}, 1)
	j.clock.Charge(st.Cost)
	j.mu.Lock()
	j.stats.Rebalances++
	j.stats.MigratedKeys += st.MigratedKeys
	j.stats.MigratedBytes += st.MigratedBytes
	j.stats.MigrationSim += st.Cost
	j.mu.Unlock()
	return st, nil
}

// observedLoadLocked blends the per-machine query counts and modeled lookup
// latency (key-value work priced on one thread) since the last rebalance into
// one load vector for RederiveBoundaries.  Each signal is normalized to its
// own total so neither unit dominates, averaged, and scaled to integers.
// Returns nil when nothing was observed.  Caller holds s.mu.
func (s *Session) observedLoadLocked() []int64 {
	var qTotal, lTotal int64
	latency := make([]int64, len(s.machineWork))
	for i := range s.machineQueries {
		latency[i] = int64(s.cfg.Model.Price(s.machineWork[i], 1))
		qTotal += s.machineQueries[i]
		lTotal += latency[i]
	}
	if qTotal <= 0 {
		return nil
	}
	const scale = 1 << 20
	load := make([]int64, len(s.machineQueries))
	for i := range load {
		f := float64(s.machineQueries[i]) / float64(qTotal)
		if lTotal > 0 {
			f = (f + float64(latency[i])/float64(lTotal)) / 2
		}
		load[i] = int64(f * scale)
	}
	return load
}
