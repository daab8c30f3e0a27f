package dht

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The ShardBackend seam.
//
// The paper's system runs on an RDMA-backed key-value store with a TCP/IP
// fallback; the store façade in this package only routes keys to shards and
// accounts operations, while the bytes themselves live behind a ShardBackend.
// Three backends ship with the repository:
//
//   - mem  (BackendMem):  per shard, an open-addressing table of 16-byte
//     pointer-free slots over an append-only arena of value bytes (table.go)
//     — the default.  A read of a frozen shard costs an atomic pointer load,
//     one probe (usually one cache line) and a slice header; it takes no
//     lock.  Values never move: a slice handed to a reader stays valid and
//     unchanged for the store's lifetime, whatever is overwritten, deleted
//     or migrated afterwards;
//   - disk (BackendDisk): a log-structured append file plus an in-memory
//     offset index per shard, so a store whose data outgrows RAM keeps
//     working with only the index resident (see disk.go);
//   - rpc  (BackendRPC):  a client and a server goroutine exchanging
//     length-prefixed frames over a loopback socket, which pays — and
//     measures — real encoding and wire costs per operation instead of
//     simulating them (see rpc.go).
//
// A backend stores bytes; it never decides placement or statistics
// classification — those stay in the Store façade, which is why
// every optimization layered on the store (batching, placement, pipelining)
// behaves identically across backends.

// BackendKind names a shard storage backend in Options and reports.
type BackendKind string

const (
	// BackendMem keeps every shard in memory: a flat slot table over an
	// append-only arena (the default).
	BackendMem BackendKind = "mem"
	// BackendDisk keeps every shard in a log-structured append file with an
	// in-memory offset index, spilling values past RAM.
	BackendDisk BackendKind = "disk"
	// BackendRPC serves every shard from a server goroutine reached over a
	// loopback socket, measuring real wire costs per operation.
	BackendRPC BackendKind = "rpc"
)

// BackendKinds lists the known backend kinds in the order they are
// documented.
func BackendKinds() []BackendKind {
	return []BackendKind{BackendMem, BackendDisk, BackendRPC}
}

// BackendStats are backend-specific counters surfaced through
// Store.BackendStats: where the bytes live (disk) and what the transport
// actually cost (rpc).  The zero value of a field means "not applicable to
// this backend".
type BackendStats struct {
	// Kind identifies the backend.
	Kind BackendKind
	// DiskBytes is the total number of bytes appended to the backend's log
	// files (disk backend): the store footprint that does NOT occupy RAM.
	DiskBytes int64
	// ResidentBytes estimates the backend's in-memory footprint: value
	// bytes for mem, index overhead for disk.  The disk backend completes
	// stores whose DiskBytes far exceed ResidentBytes — that is the point.
	ResidentBytes int64
	// WireReadOps / WireWriteOps count operations that crossed the rpc
	// transport (batched operations count once).
	WireReadOps  int64
	WireWriteOps int64
	// WireBytes approximates payload bytes moved over the transport.
	WireBytes int64
	// WireReadTime / WireWriteTime accumulate the measured round-trip time
	// of those operations; divided by the op counts they calibrate a
	// simtime.Measured cost model (see Store.MeasuredCostModel).
	WireReadTime  time.Duration
	WireWriteTime time.Duration
	// Reconnects counts rpc client connections that were re-established
	// after a connection error (including drops injected via
	// FaultPlan.PDrop); the failed call was re-sent on the new connection.
	Reconnects int64
}

// MeasuredReadRTT returns the mean measured round trip of one wire read, or
// 0 when the backend has no transport.
func (b BackendStats) MeasuredReadRTT() time.Duration {
	if b.WireReadOps == 0 {
		return 0
	}
	return b.WireReadTime / time.Duration(b.WireReadOps)
}

// MeasuredWriteRTT returns the mean measured round trip of one wire write,
// or 0 when the backend has no transport.
func (b BackendStats) MeasuredWriteRTT() time.Duration {
	if b.WireWriteOps == 0 {
		return 0
	}
	return b.WireWriteTime / time.Duration(b.WireWriteOps)
}

// ShardBackend is the storage engine behind a Store: it owns the per-shard
// data (primary and, when replication is enabled, a synchronous replica) and
// the simulated shard-failure state.  The Store façade above it owns key
// routing (placement), freeze semantics and statistics; modeled latency is
// charged above both, by package ampc.
//
// Contracts shared by every implementation:
//
//   - Values are copied on write and must not be modified by callers after a
//     read (exactly the map semantics of the original store).  A slice
//     returned by a read stays valid after later writes to the same key.
//   - A write mirrors into the replica when replication is enabled.
//   - A read of a failed shard is served from the replica (reported as a
//     failover) or returns ErrUnavailable when the backend is unreplicated.
//   - Batch methods touch exactly one shard per call: one lock acquisition,
//     one wire round trip.  Grouping keys by shard is the façade's job.
//   - Implementations must be safe for concurrent use.
type ShardBackend interface {
	// Kind identifies the backend in stats and error messages.
	Kind() BackendKind
	// Get returns the value stored under key on shard.  failover reports
	// that the read was served by the replica of a failed shard.
	Get(shard int, key uint64) (val []byte, ok, failover bool, err error)
	// Put stores a copy of value under key on shard, replacing the key's
	// earlier value.
	Put(shard int, key uint64, value []byte) error
	// BatchGet serves keys from one shard under a single visit.  failovers
	// is the number of keys served by the replica of a failed shard.
	BatchGet(shard int, keys []uint64) (vals [][]byte, oks []bool, failovers int, err error)
	// BatchWrite stores a copy of every pair's value under its key on one
	// shard under a single visit; a later pair for a key wins.
	BatchWrite(shard int, pairs []Pair) error
	// BatchDelete removes keys from one shard under a single visit,
	// mirroring into the replica; absent keys are ignored.  It exists for
	// shard migration (Store.Rebalance), which copies a key's bytes to its
	// new shard and then deletes them here — it is not part of the store's
	// public write API, whose entries are immutable-once-written.
	BatchDelete(shard int, keys []uint64) error
	// Freeze is the backend's half of Store.Freeze: the store becomes
	// read-only, so the backend may flush buffered state to stable storage
	// (the disk backend syncs its logs).
	Freeze() error
	// FailShard simulates the loss of shard; RecoverShard undoes it,
	// rebuilding the primary from the replica when one exists (an error
	// means the rebuild itself failed — e.g. the disk backend could not
	// rewrite the primary log).
	FailShard(shard int)
	RecoverShard(shard int) error
	// LenShard returns the number of distinct keys on shard.
	LenShard(shard int) int
	// Range calls fn for every key-value pair on shard until fn returns
	// false.  completed is false when fn stopped the iteration early; err
	// reports a shard whose bytes could not be read (the disk backend), in
	// which case the iteration stopped at the failing key.
	Range(shard int, fn func(key uint64, value []byte) bool) (completed bool, err error)
	// Stats returns the backend-specific counters.
	Stats() BackendStats
	// Close releases backend resources (files, sockets).  The backend is
	// unusable afterwards; Close is idempotent.
	Close() error
}

// newBackend constructs the backend selected by opts, validating the kind,
// and wraps it in the fault injector when a FaultPlan is installed.  The rpc
// backend additionally receives the plan directly: dropped connections live
// inside the transport, below the ShardBackend seam.
func newBackend(opts Options) (ShardBackend, error) {
	var engine ShardBackend
	switch opts.Backend {
	case "", BackendMem:
		engine = newMemBackend(opts.Shards, opts.Replicate)
	case BackendDisk:
		e, err := newDiskBackend(opts.Shards, opts.Replicate, opts.DiskDir)
		if err != nil {
			return nil, err
		}
		engine = e
	case BackendRPC:
		e, err := newRPCBackend(opts.Shards, opts.Replicate, opts.Faults)
		if err != nil {
			return nil, err
		}
		engine = e
	default:
		return nil, fmt.Errorf("dht: unknown backend kind %q (known: %v)", opts.Backend, BackendKinds())
	}
	if opts.Faults != nil && opts.Faults.injects() {
		engine = newFaultBackend(engine, opts.Shards, opts.Faults)
	}
	return engine, nil
}

// memState is everything a read of one mem shard needs: the primary index,
// the replica (a second index over the same arena bytes), the arena and the
// simulated failure flag.  A shard mutates its own memState under its mutex;
// a frozen shard additionally publishes a copy that is never written again.
type memState struct {
	prim, rep  memTable
	arena      arena
	replicated bool
	failed     bool
}

// table returns the index that serves reads: the primary, or the replica of
// a failed shard (failover), or ErrUnavailable when a failed shard has none.
func (st *memState) table() (t *memTable, failover bool, err error) {
	if !st.failed {
		return &st.prim, false, nil
	}
	if !st.replicated {
		return nil, false, ErrUnavailable
	}
	return &st.rep, true, nil
}

func (st *memState) get(key uint64) ([]byte, bool, bool, error) {
	t, failover, err := st.table()
	if err != nil {
		return nil, false, false, err
	}
	ref := t.get(key)
	if ref == refEmpty {
		return nil, false, failover, nil
	}
	return refBytes(st.arena.chunks, ref), true, failover, nil
}

func (st *memState) batchGet(keys []uint64) ([][]byte, []bool, int, error) {
	t, failover, err := st.table()
	if err != nil {
		return nil, nil, 0, err
	}
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	for i, k := range keys {
		if ref := t.get(k); ref != refEmpty {
			vals[i], oks[i] = refBytes(st.arena.chunks, ref), true
		}
	}
	failovers := 0
	if failover {
		failovers = len(keys)
	}
	return vals, oks, failovers, nil
}

func (st *memState) each(fn func(key uint64, value []byte) bool) bool {
	for _, s := range st.prim.slots {
		if s.ref > refDeleted && !fn(s.key, refBytes(st.arena.chunks, s.ref)) {
			return false
		}
	}
	return true
}

// memShard is one in-memory shard.  Until the backend is frozen every
// operation takes mu.  Freeze publishes the state through view, and from
// then on reads load the view and take no lock and write no shared cache
// line; the rare post-freeze mutation (a simulated failure or recovery,
// Rebalance's BatchWrite/BatchDelete) copies what it is about to change,
// mutates the copy under mu and publishes a new view, so nothing reachable
// from a published view is ever written again.
type memShard struct {
	view     atomic.Pointer[memState] // nil until Freeze
	mu       sync.Mutex
	st       memState
	resident int64    // value bytes plus memKeyOverhead per key of the primary
	_        [64]byte // pads the shard to whole cache lines: neighbours in the slice share none
}

// memBackend is the in-memory storage engine: per shard, a flat slot table
// over an append-only arena (see table.go).  It also serves as the
// server-side engine of the rpc backend, which never freezes it.
type memBackend struct {
	shards []memShard
}

// memKeyOverhead is the per-key bookkeeping charged to the resident-bytes
// estimate.  It is the figure the map engine used (hash bucket slot, key,
// slice header) and is kept so ResidentBytes means the same across versions
// of the engine; a table slot at the load bound costs about half of it.
const memKeyOverhead = 48

func newMemBackend(shards int, replicate bool) *memBackend {
	b := &memBackend{shards: make([]memShard, shards)}
	for i := range b.shards {
		b.shards[i].st.replicated = replicate
	}
	return b
}

func (b *memBackend) Kind() BackendKind { return BackendMem }

// lockForWrite takes the shard mutex for a mutation of the indexes.  On a
// frozen shard the published view shares the slot arrays, so the mutation
// gets copies of its own; on an unfrozen one it first reclaims the arena if
// overwrites and deletes have left more dead bytes than live ones.
func (sh *memShard) lockForWrite() {
	sh.mu.Lock()
	if sh.view.Load() != nil {
		sh.st.prim = sh.st.prim.clone()
		if sh.st.replicated {
			sh.st.rep = sh.st.rep.clone()
		}
		return
	}
	live := sh.resident - memKeyOverhead*int64(sh.st.prim.live)
	if sh.st.arena.capBytes-live > live+compactSlack {
		sh.compact()
	}
}

// unlock republishes the state of a frozen shard and releases the mutex.
func (sh *memShard) unlock() {
	if sh.view.Load() != nil {
		sh.publish()
	}
	sh.mu.Unlock()
}

// publish makes a copy of the state the one lock-free reads see.
func (sh *memShard) publish() {
	st := sh.st
	sh.view.Store(&st)
}

// compact copies the live records into fresh chunks and repoints both
// indexes.  The arena never recycles bytes — a slice handed to a reader
// (per-machine caches keep them) must stay valid — so this is how an
// overwritten value's memory is bounded: the old chunks stay intact for
// whoever still holds a slice of them and go to the garbage collector after
// that.
func (sh *memShard) compact() {
	old := sh.st.arena
	sh.st.arena = arena{nextCap: old.nextCap}
	slots := sh.st.prim.slots
	for i := range slots {
		if s := &slots[i]; s.ref > refDeleted {
			s.ref = sh.st.arena.put(refBytes(old.chunks, s.ref))
		}
	}
	if sh.st.replicated {
		// Every write reaches both indexes, so the replica is the primary's
		// copy.
		sh.st.rep = sh.st.prim.clone()
	}
}

// store writes value under key into both indexes and keeps the resident
// estimate; the caller holds the shard for writing.
func (sh *memShard) store(key uint64, value []byte) {
	ref := sh.st.arena.put(value)
	old := sh.st.prim.set(key, ref)
	if sh.st.replicated {
		sh.st.rep.set(key, ref)
	}
	sh.resident += int64(len(value))
	if old == refEmpty {
		sh.resident += memKeyOverhead
	} else {
		sh.resident -= int64(refLen(sh.st.arena.chunks, old))
	}
}

func (b *memBackend) Get(shard int, key uint64) ([]byte, bool, bool, error) {
	sh := &b.shards[shard]
	if st := sh.view.Load(); st != nil {
		return st.get(key)
	}
	sh.mu.Lock()
	v, ok, failover, err := sh.st.get(key)
	sh.mu.Unlock()
	return v, ok, failover, err
}

func (b *memBackend) Put(shard int, key uint64, value []byte) error {
	sh := &b.shards[shard]
	sh.lockForWrite()
	sh.store(key, value)
	sh.unlock()
	return nil
}

func (b *memBackend) BatchGet(shard int, keys []uint64) ([][]byte, []bool, int, error) {
	sh := &b.shards[shard]
	if st := sh.view.Load(); st != nil {
		return st.batchGet(keys)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.st.batchGet(keys)
}

func (b *memBackend) BatchWrite(shard int, pairs []Pair) error {
	sh := &b.shards[shard]
	sh.lockForWrite()
	for _, p := range pairs {
		sh.store(p.Key, p.Value)
	}
	sh.unlock()
	return nil
}

func (b *memBackend) BatchDelete(shard int, keys []uint64) error {
	sh := &b.shards[shard]
	sh.lockForWrite()
	for _, k := range keys {
		if old := sh.st.prim.del(k); old != refEmpty {
			sh.resident -= int64(refLen(sh.st.arena.chunks, old)) + memKeyOverhead
		}
		if sh.st.replicated {
			sh.st.rep.del(k)
		}
	}
	sh.unlock()
	return nil
}

// Reserve tells the engine that about keys entries are coming, spread over
// the shards: each table is then sized once (its share plus 1/8 slack for an
// uneven placement) instead of doubled into place.  A table whose shard a
// placement skews past the reservation still grows.
func (b *memBackend) Reserve(keys int) {
	per := keys / len(b.shards)
	per += per/8 + 1
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		sh.st.prim.reserve(per)
		if sh.st.replicated {
			sh.st.rep.reserve(per)
		}
		sh.mu.Unlock()
	}
}

// Freeze publishes every shard's state: the store is read-only from here on
// (Store.Freeze refuses writes), so reads stop taking the shard mutex.
func (b *memBackend) Freeze() error {
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		sh.publish()
		sh.mu.Unlock()
	}
	return nil
}

func (b *memBackend) FailShard(shard int) {
	sh := &b.shards[shard]
	sh.mu.Lock()
	sh.st.failed = true
	sh.unlock()
}

func (b *memBackend) RecoverShard(shard int) error {
	sh := &b.shards[shard]
	sh.mu.Lock()
	sh.st.failed = false
	if sh.st.replicated {
		// Rebuild the primary from the replica, as a recovering server would.
		sh.st.prim = sh.st.rep.clone()
	}
	sh.unlock()
	return nil
}

func (b *memBackend) LenShard(shard int) int {
	sh := &b.shards[shard]
	if st := sh.view.Load(); st != nil {
		return st.prim.live
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.st.prim.live
}

func (b *memBackend) Range(shard int, fn func(key uint64, value []byte) bool) (bool, error) {
	sh := &b.shards[shard]
	if st := sh.view.Load(); st != nil {
		return st.each(fn), nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.st.each(fn), nil
}

func (b *memBackend) Stats() BackendStats {
	var resident int64
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		resident += sh.resident
		sh.mu.Unlock()
	}
	return BackendStats{Kind: BackendMem, ResidentBytes: resident}
}

func (b *memBackend) Close() error { return nil }
