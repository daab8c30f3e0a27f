// Package dht implements the distributed hash table (distributed key-value
// store) at the heart of the AMPC model.
//
// The store holds one value per key: there is one write mode, and a Put or
// BatchPut of a key replaces its value.
//
// The store is sharded: keys are routed onto a fixed number of shards, each
// standing in for one key-value server.  Where the bytes of a shard actually
// live is decided by a pluggable ShardBackend (see backend.go): in memory, a
// flat pointer-free slot table over an append-only arena per shard (the
// default, see table.go), a log-structured file per shard that spills stores
// past RAM, or a server goroutine reached over a loopback socket that
// measures real wire costs.  The Store type itself is a thin routing and
// accounting façade: it owns key→shard placement, freeze semantics, and
// exactly the quantities the paper measures — number of reads and writes,
// bytes transferred, and per-shard load (query contention, §2) — while the
// backend owns the bytes.  The counters are kept per calling machine (one
// cache-line-padded block each, folded by Stats), so accounting an operation
// never makes two machines write the same line.  Freeze implements the round
// discipline of the model: within round i machines read D_{i-1} (frozen,
// read-only) and write D_i — and because every round input is frozen, the
// mem engine serves those reads from an immutable published view: one probe
// of one cache line, a slice into the arena, no lock taken and no shared
// line written.  Values never move once written (a reader, or a per-machine
// Cache, may keep the slice it was handed for the life of the store), so an
// overwrite appends and the shard reclaims dead bytes by copying the live
// ones into fresh chunks, never by reusing old ones.
//
// The real system in the paper uses an RDMA-backed key-value store with a
// TCP/IP fallback.  The store itself keeps no clock: it routes, stores and
// counts, and classifies every operation as local or remote to the calling
// machine (View).  Modeled time is not the store's business: package ampc
// counts each operation by kind and side as the machine issues it, and
// simtime prices the counts (CostModel.Price) into the job's clock per
// segment — which is how the Table 4 experiments are reproduced.  The rpc backend additionally measures the real
// round-trip of every operation, from which Store.MeasuredCostModel derives
// an empirically calibrated cost model.
//
// # Failure semantics
//
// The model's fault-tolerance assumption (§2) is that the DHT absorbs
// machine failures between rounds, and the store façade implements the
// client half of that contract.  Failures surface in three escalating
// tiers.  Transient errors — a dropped connection, an injected chaos fault,
// a crashed shard that is about to recover — are absorbed inside the façade
// when Options.Retry installs a RetryPolicy: capped exponential backoff
// with seeded jitter, a per-op wall-clock deadline, and hedged batch reads
// that duplicate a request stuck past a tail-latency threshold
// (Stats.{Retries, Hedges, DeadlineExceeded} count the absorbed work).
// Shard loss is the next tier: with Options.Replicate every write mirrors
// into a synchronous replica, a read of a failed shard is served from the
// replica and counted as a failover, and RecoverShard rebuilds the primary;
// without replication such reads fail with ErrUnavailable — which a retry
// policy keeps re-trying, because an unavailable shard is expected to
// recover.  Errors that outlive every retry budget are the caller's to
// handle; the ampc runtime recovers from them by re-executing the failing
// (round, machine) sub-round under its Config.FaultBudget.  All of this is
// testable deterministically: Options.Faults installs a seeded FaultPlan
// that injects transient errors, latency spikes, scheduled shard crashes,
// torn disk tails at the Freeze point and dropped rpc connections, keyed so
// that a chaos run returns byte-identical results to a clean one.
package dht

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ampcgraph/internal/simtime"
)

// ErrFrozen is returned by Put when the store has been frozen.
var ErrFrozen = errors.New("dht: store is frozen (read-only)")

// ErrUnavailable is returned by operations that hit a failed, unreplicated
// shard.
var ErrUnavailable = errors.New("dht: shard unavailable")

// Stats aggregates the operation counters of a store.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	Misses       int64 // reads of absent keys
	Failovers    int64 // reads served by a replica after a shard failure
	MaxShardOps  int64 // maximum reads+writes on any single shard (contention)
	Keys         int64 // number of distinct keys currently stored
	ShardVisits  int64 // shard lock acquisitions (1 per single op, 1 per shard per batch)
	BatchReads   int64 // BatchGet calls
	BatchWrites  int64 // BatchPut calls
	LocalReads   int64 // reads served by a shard co-located with the caller
	RemoteReads  int64 // reads that crossed the network (includes anonymous callers)
	RemoteBytes  int64 // bytes moved by remote reads and writes

	Retries          int64 // extra attempts absorbed by the RetryPolicy
	Hedges           int64 // duplicate batch reads issued past HedgeAfter
	DeadlineExceeded int64 // ops abandoned at the RetryPolicy deadline
}

// Pair is one key-value record of a batched write.
type Pair struct {
	Key   uint64
	Value []byte
}

// Store is a sharded key-value store: a routing/accounting façade over a
// ShardBackend.
type Store struct {
	name      string
	backend   ShardBackend
	numShards int
	placement Placement
	// shardMachine memoizes placement.MachineFor for every shard: placements
	// are pure functions of their inputs (see Placement), so the map never
	// changes after construction, and the hot-path read classifiers
	// (LocalTo, shardLocalTo) become a slice load instead of a policy call.
	shardMachine []int
	frozen       atomic.Bool
	replicate    bool
	retry        *RetryPolicy

	retries          atomic.Int64
	hedges           atomic.Int64
	deadlineExceeded atomic.Int64
	retrySeq         atomic.Uint64 // jitter stream position

	// counters holds one opCounters block per calling machine, indexed by
	// machine+1 (slot 0 is the anonymous caller's); the slice is replaced,
	// never written, when a new machine shows up (see countersFor).
	counters   atomic.Pointer[[]*opCounters]
	countersMu sync.Mutex // serializes the replacement of counters

	closed    atomic.Bool
	finalKeys int64 // Len snapshot taken by Close
}

// Options configures a Store.
type Options struct {
	// Shards is the number of key-value servers; defaults to 16.
	Shards int
	// Replicate keeps a synchronous replica of every shard so that reads
	// survive an injected shard failure (the fault-tolerance property of §2).
	Replicate bool
	// Placement decides which shard holds each key and which machine each
	// shard is co-located with.  Nil defaults to HashRandom (uniform hashing,
	// no co-location), the behavior of the unmodified model.
	Placement Placement
	// Backend selects the shard storage engine: BackendMem (default),
	// BackendDisk or BackendRPC.  NewStore rejects unknown kinds.
	Backend BackendKind
	// DiskDir is the directory holding the shard log files of the disk
	// backend (required for BackendDisk, ignored otherwise).  Reopening a
	// store over an existing directory replays its logs.
	DiskDir string
	// Faults installs a deterministic, seeded fault-injection plan between
	// the façade and the backend (see FaultPlan).  Nil injects nothing.
	Faults *FaultPlan
	// Retry installs the façade's retry policy (see RetryPolicy).  Nil
	// disables retries: every backend error surfaces immediately.
	Retry *RetryPolicy
}

// NewStore creates an empty store named name.  It returns an error when the
// options select an unknown backend kind or the backend fails to initialize
// (for example, the disk backend's directory cannot be created).
func NewStore(name string, opts Options) (*Store, error) {
	if opts.Shards <= 0 {
		opts.Shards = 16
	}
	if opts.Placement == nil {
		opts.Placement = HashRandom()
	}
	backend, err := newBackend(opts)
	if err != nil {
		return nil, err
	}
	s := &Store{
		name:         name,
		backend:      backend,
		numShards:    opts.Shards,
		placement:    opts.Placement,
		shardMachine: make([]int, opts.Shards),
		replicate:    opts.Replicate,
		retry:        opts.Retry,
	}
	for i := range s.shardMachine {
		s.shardMachine[i] = opts.Placement.MachineFor(i, opts.Shards)
	}
	return s, nil
}

// Name returns the store's name (D0, D1, ... in the model).
func (s *Store) Name() string { return s.name }

// NumShards returns the number of shards.
func (s *Store) NumShards() int { return s.numShards }

// Backend returns the kind of the store's storage backend.
func (s *Store) Backend() BackendKind { return s.backend.Kind() }

// BackendStats returns the backend-specific counters (disk footprint, wire
// costs).
func (s *Store) BackendStats() BackendStats { return s.backend.Stats() }

func (s *Store) shardIndexFor(key uint64) int {
	return s.placement.ShardFor(key, s.numShards)
}

// Placement returns the store's placement policy.
func (s *Store) Placement() Placement { return s.placement }

// LocalTo reports whether key lives on a shard co-located with machine.  A
// negative machine (an anonymous caller) is never local.
func (s *Store) LocalTo(machine int, key uint64) bool {
	return s.shardLocalTo(machine, s.shardIndexFor(key))
}

// shardLocalTo reports whether shard idx is co-located with machine.
func (s *Store) shardLocalTo(machine, idx int) bool {
	return machine >= 0 && s.shardMachine[idx] == machine
}

// Reserve tells the store that about keys entries are about to be written,
// so an engine that sizes an index (mem, and the mem engine behind rpc) can
// size it once.  It is a hint: it changes no result, an engine without an
// index to size ignores it, and so does one reached through a wrapper that
// does not forward it.
func (s *Store) Reserve(keys int) {
	if r, ok := s.backend.(interface{ Reserve(keys int) }); ok {
		r.Reserve(keys)
	}
}

// opCounters is the operation accounting of one calling machine.  Every
// counted operation adds to the block of the machine performing it, so two
// machines never write the same cache line (the block fills two lines and is
// allocated on its own); Stats, TotalBytes and WriteCount fold the blocks.
// Reads is not stored: every read counts as exactly one of localReads and
// remoteReads.
type opCounters struct {
	writes       atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	misses       atomic.Int64
	failovers    atomic.Int64
	shardVisits  atomic.Int64
	batchReads   atomic.Int64
	batchWrites  atomic.Int64
	localReads   atomic.Int64
	remoteReads  atomic.Int64
	remoteBytes  atomic.Int64
	// shardOps counts reads+writes per shard for the MaxShardOps contention
	// statistic; it stays in the façade so every backend reports it the same
	// way.
	shardOps []atomic.Int64
	_        [16]byte
}

// countersFor returns machine's counter block, creating it on first use.
// Every negative machine is the anonymous caller.
func (s *Store) countersFor(machine int) *opCounters {
	if machine < 0 {
		machine = -1
	}
	if blocks := s.counters.Load(); blocks != nil && machine+1 < len(*blocks) {
		if c := (*blocks)[machine+1]; c != nil {
			return c
		}
	}
	s.countersMu.Lock()
	defer s.countersMu.Unlock()
	var blocks []*opCounters
	if cur := s.counters.Load(); cur != nil {
		blocks = *cur
	}
	if machine+1 < len(blocks) && blocks[machine+1] != nil {
		return blocks[machine+1]
	}
	// Per-shard counts padded to whole cache lines, so the blocks of two
	// machines share none.
	c := &opCounters{shardOps: make([]atomic.Int64, (s.numShards+7)&^7)[:s.numShards]}
	next := make([]*opCounters, max(len(blocks), machine+2))
	copy(next, blocks)
	next[machine+1] = c
	s.counters.Store(&next)
	return c
}

// foldCounters calls fn for every machine's counter block.
func (s *Store) foldCounters(fn func(c *opCounters)) {
	if blocks := s.counters.Load(); blocks != nil {
		for _, c := range *blocks {
			if c != nil {
				fn(c)
			}
		}
	}
}

// Put stores value under key.  It returns ErrFrozen after Freeze has been
// called.  The value is copied.
func (s *Store) Put(key uint64, value []byte) error {
	return s.putFrom(-1, key, value)
}

// putFrom is Put performed by the given machine (via Store.View): a write to
// a shard co-located with the machine is excluded from the remote-byte count.
// A negative machine is an anonymous (always remote) caller.
func (s *Store) putFrom(machine int, key uint64, value []byte) error {
	if s.frozen.Load() {
		return ErrFrozen
	}
	idx := s.shardIndexFor(key)
	local := s.shardLocalTo(machine, idx)
	if err := s.backend.Put(idx, key, value); err != nil {
		err = s.retryAfter(err, func() error { return s.backend.Put(idx, key, value) })
		if err != nil {
			return err
		}
	}
	c := s.countersFor(machine)
	bytes := int64(len(value)) + 8
	c.shardOps[idx].Add(1)
	c.shardVisits.Add(1)
	c.writes.Add(1)
	c.bytesWritten.Add(bytes)
	if !local {
		c.remoteBytes.Add(bytes)
	}
	return nil
}

// Get returns the value stored under key.  The returned slice must not be
// modified.  A read of an absent key counts as a miss.
func (s *Store) Get(key uint64) ([]byte, bool, error) {
	return s.getFrom(-1, key)
}

// getFrom is Get performed by the given machine (via Store.View): a read
// served by a shard co-located with the machine counts as a local read.  A
// negative machine is an anonymous (always remote) caller.
func (s *Store) getFrom(machine int, key uint64) ([]byte, bool, error) {
	idx := s.shardIndexFor(key)
	local := s.shardLocalTo(machine, idx)
	v, ok, failover, err := s.backend.Get(idx, key)
	if err != nil {
		err = s.retryAfter(err, func() error {
			var aerr error
			v, ok, failover, aerr = s.backend.Get(idx, key)
			return aerr
		})
	}
	c := s.countersFor(machine)
	if err != nil {
		// A read that failed past any retry budget: the lookup is paid for
		// (and counted) even though it cannot be served.
		c.shardVisits.Add(1)
		c.countRead(local, 0)
		if errors.Is(err, ErrUnavailable) {
			return nil, false, fmt.Errorf("%w: key %d", ErrUnavailable, key)
		}
		return nil, false, fmt.Errorf("dht: %s: get key %d: %w", s.name, key, err)
	}
	if failover {
		c.failovers.Add(1)
	}
	c.shardOps[idx].Add(1)
	c.shardVisits.Add(1)
	if ok {
		c.bytesRead.Add(int64(len(v)) + 8)
		c.countRead(local, int64(len(v))+8)
	} else {
		c.misses.Add(1)
		c.countRead(local, 0)
	}
	return v, ok, nil
}

// countRead records one read of size bytes (the 8-byte key header included,
// matching BytesRead) as local or remote.
func (c *opCounters) countRead(local bool, bytes int64) {
	if local {
		c.localReads.Add(1)
	} else {
		c.remoteReads.Add(1)
		c.remoteBytes.Add(bytes)
	}
}

// WriteCount returns the number of writes (single or batched) applied to the
// store so far.  It is a cheap monotone counter:
// the AMPC runtime compares it against the value recorded when a store's
// per-machine caches were last validated to decide whether the caches must
// be invalidated before the next round reads the store.
func (s *Store) WriteCount() int64 {
	var n int64
	s.foldCounters(func(c *opCounters) { n += c.writes.Load() })
	return n
}

// Freeze makes the store read-only; subsequent Put and BatchPut calls fail.
// In the AMPC model D_{i-1} is immutable while round i runs.  The backend
// may use the transition to flush buffered state (the disk backend syncs
// its logs); an error means that flush failed — the store is frozen
// regardless, but its durability point was not reached.
func (s *Store) Freeze() error {
	if s.frozen.Swap(true) {
		return nil
	}
	if err := s.backend.Freeze(); err != nil {
		return fmt.Errorf("dht: freezing %s: %w", s.name, err)
	}
	return nil
}

// Frozen reports whether the store is read-only.
func (s *Store) Frozen() bool { return s.frozen.Load() }

// FailShard simulates the loss of shard i.  With replication enabled reads
// continue to succeed (and are counted as failovers); without replication
// reads of keys on the failed shard return ErrUnavailable.
func (s *Store) FailShard(i int) {
	s.backend.FailShard(i % s.numShards)
}

// RecoverShard undoes FailShard, rebuilding the primary from the replica
// when one exists.  An error means the rebuild itself failed.
func (s *Store) RecoverShard(i int) error {
	return s.backend.RecoverShard(i % s.numShards)
}

// Len returns the number of distinct keys stored.  After Close it returns
// the key count snapshotted at close time.
func (s *Store) Len() int {
	if s.closed.Load() {
		return int(s.finalKeys)
	}
	n := 0
	for i := 0; i < s.numShards; i++ {
		n += s.backend.LenShard(i)
	}
	return n
}

// Range calls fn for every key-value pair until fn returns false.  Iteration
// order is unspecified.  It is intended for draining a store at the end of a
// round, not for point lookups.  Range is a no-op on a closed store.  An
// error means a shard's bytes could not be read (a disk log gone bad); the
// pairs delivered before it are valid.
func (s *Store) Range(fn func(key uint64, value []byte) bool) error {
	if s.closed.Load() {
		return nil
	}
	for i := 0; i < s.numShards; i++ {
		completed, err := s.backend.Range(i, fn)
		if err != nil {
			return fmt.Errorf("dht: %s: reading shard %d: %w", s.name, i, err)
		}
		if !completed {
			return nil
		}
	}
	return nil
}

// Stats returns a snapshot of the operation counters, folded over the
// per-machine blocks.  It remains valid after Close (the key count freezes
// at its close-time value).
func (s *Store) Stats() Stats {
	st := Stats{
		Keys:             int64(s.Len()),
		Retries:          s.retries.Load(),
		Hedges:           s.hedges.Load(),
		DeadlineExceeded: s.deadlineExceeded.Load(),
	}
	shardOps := make([]int64, s.numShards)
	s.foldCounters(func(c *opCounters) {
		st.Writes += c.writes.Load()
		st.BytesRead += c.bytesRead.Load()
		st.BytesWritten += c.bytesWritten.Load()
		st.Misses += c.misses.Load()
		st.Failovers += c.failovers.Load()
		st.ShardVisits += c.shardVisits.Load()
		st.BatchReads += c.batchReads.Load()
		st.BatchWrites += c.batchWrites.Load()
		st.LocalReads += c.localReads.Load()
		st.RemoteReads += c.remoteReads.Load()
		st.RemoteBytes += c.remoteBytes.Load()
		for i := range shardOps {
			shardOps[i] += c.shardOps[i].Load()
		}
	})
	st.Reads = st.LocalReads + st.RemoteReads
	for _, ops := range shardOps {
		if ops > st.MaxShardOps {
			st.MaxShardOps = ops
		}
	}
	return st
}

// TotalBytes returns bytes read plus bytes written, the quantity plotted in
// Figures 3 and 9 of the paper ("communication with the key-value store").
func (s *Store) TotalBytes() int64 {
	var n int64
	s.foldCounters(func(c *opCounters) { n += c.bytesRead.Load() + c.bytesWritten.Load() })
	return n
}

// MeasuredCostModel derives a cost model from the wire round trips measured
// by the store's backend.  It reports false when the backend has no transport
// (mem, disk) or has not yet served any operation; callers then fall back to
// the simulated models.
func (s *Store) MeasuredCostModel() (simtime.CostModel, bool) {
	bs := s.backend.Stats()
	read, write := bs.MeasuredReadRTT(), bs.MeasuredWriteRTT()
	if read == 0 && write == 0 {
		return simtime.CostModel{}, false
	}
	return simtime.Measured(string(bs.Kind), read, write), true
}

// Close releases the backend's resources (files, sockets).  A store has one
// owner — the ampc session or job that opened it — which closes it once;
// further calls are no-ops.  Operation counters and Stats stay readable; data
// operations on a closed store are undefined.
func (s *Store) Close() error {
	if s.closed.Load() {
		return nil
	}
	s.finalKeys = int64(s.Len())
	s.closed.Store(true)
	return s.backend.Close()
}
