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
// fallback; the store façade in this package routes keys to shards, accounts
// operations and decides what a failed shard serves, while the bytes
// themselves live behind a ShardBackend.  Three engines ship with the
// repository, each with one job:
//
//   - mem  (BackendMem) holds bytes at memory speed: per shard, an
//     open-addressing table of 16-byte pointer-free slots over an
//     append-only arena of value bytes (table.go) — the default.  A read of
//     a frozen shard costs an atomic pointer load, one probe (usually one
//     cache line) and a slice header; it takes no lock.  Values never move:
//     a slice handed to a reader stays valid and unchanged for the store's
//     lifetime, whatever is overwritten afterwards;
//   - disk (BackendDisk) holds bytes past RAM and is durable at Freeze: a
//     log-structured append file plus an in-memory offset index per shard.
//     A write call appends its records with one positioned write, and a
//     BatchGet is one buffer and one positioned read per key, so a store
//     whose data outgrows RAM keeps working with only the index resident,
//     and a reopened directory replays its logs (see disk.go);
//   - rpc  (BackendRPC) supplies a measured round trip: a client and a
//     server goroutine exchanging length-prefixed frames over a loopback
//     socket, which pays — and times — real encoding and wire costs per
//     operation instead of simulating them (see rpc.go).
//
// A backend stores bytes; it never decides placement, statistics
// classification, replication or failover — those stay in the Store façade,
// which is why every optimization layered on the store (batching, placement,
// caching) and every recovery tier behaves identically across backends.

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

// ShardBackend is the storage engine behind a Store: it holds the bytes of
// every shard.  The Store façade above it owns key routing (placement),
// freeze semantics, statistics, and shard failure: a replicated store keeps a
// second engine of the same kind as the replica, mirrors every write into it
// and routes the reads of a down shard there, so no engine knows about
// replicas or failures.  Modeled latency is charged above both, by package
// ampc.
//
// Contracts shared by every implementation:
//
//   - Values are copied on write and must not be modified by callers after a
//     read (exactly the map semantics of the original store).  A slice
//     returned by a read stays valid after later writes to the same key.
//   - Batch methods touch exactly one shard per call: one lock acquisition,
//     one wire round trip.  Grouping keys by shard is the façade's job.
//   - Implementations must be safe for concurrent use.
type ShardBackend interface {
	// Kind identifies the backend in stats and error messages.
	Kind() BackendKind
	// Get returns the value stored under key on shard.
	Get(shard int, key uint64) (val []byte, ok bool, err error)
	// Put stores a copy of value under key on shard, replacing the key's
	// earlier value.
	Put(shard int, key uint64, value []byte) error
	// BatchGet serves keys from one shard under a single visit.
	BatchGet(shard int, keys []uint64) (vals [][]byte, oks []bool, err error)
	// BatchWrite stores a copy of every pair's value under its key on one
	// shard under a single visit; a later pair for a key wins.
	BatchWrite(shard int, pairs []Pair) error
	// Freeze is the backend's half of Store.Freeze: the store becomes
	// read-only, so the backend may flush buffered state to stable storage
	// (the disk backend syncs its logs).
	Freeze() error
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

// newBackend constructs the engine selected by opts, validating the kind;
// dir is where a disk engine keeps its logs.  The rpc engine receives the
// fault plan: dropped connections live inside the transport, below the
// ShardBackend seam.
func newBackend(opts Options, dir string) (ShardBackend, error) {
	switch opts.Backend {
	case "", BackendMem:
		return newMemBackend(opts.Shards), nil
	case BackendDisk:
		return newDiskBackend(opts.Shards, dir)
	case BackendRPC:
		return newRPCBackend(opts.Shards, opts.Faults)
	}
	return nil, fmt.Errorf("dht: unknown backend kind %q (known: %v)", opts.Backend, BackendKinds())
}

// memState is everything a read of one mem shard needs: the index and the
// arena it points into.  A shard mutates its own memState under its mutex; a
// frozen shard additionally publishes a copy that is never written again.
type memState struct {
	table memTable
	arena arena
}

func (st *memState) get(key uint64) ([]byte, bool) {
	ref := st.table.get(key)
	if ref == refEmpty {
		return nil, false
	}
	return refBytes(st.arena.chunks, ref), true
}

func (st *memState) batchGet(keys []uint64) ([][]byte, []bool) {
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	for i, k := range keys {
		vals[i], oks[i] = st.get(k)
	}
	return vals, oks
}

func (st *memState) each(fn func(key uint64, value []byte) bool) bool {
	for _, s := range st.table.slots {
		if s.ref != refEmpty && !fn(s.key, refBytes(st.arena.chunks, s.ref)) {
			return false
		}
	}
	return true
}

// memShard is one in-memory shard.  Until the backend is frozen every
// operation takes mu.  Freeze publishes the state through view, and from
// then on reads load the view and take no lock and write no shared cache
// line; a write after Freeze copies the index it is about to change,
// mutates the copy under mu and publishes a new view, so nothing reachable
// from a published view is ever written again.
type memShard struct {
	view     atomic.Pointer[memState] // nil until Freeze
	mu       sync.Mutex
	st       memState
	resident int64    // value bytes plus memKeyOverhead per key
	_        [64]byte // pads the shard to three whole cache lines: neighbours in the slice share none
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

func newMemBackend(shards int) *memBackend {
	return &memBackend{shards: make([]memShard, shards)}
}

func (b *memBackend) Kind() BackendKind { return BackendMem }

// lockForWrite takes the shard mutex for a mutation of the index.  On a
// frozen shard the published view shares the slot array, so the mutation
// gets a copy of its own; on an unfrozen one it first reclaims the arena if
// overwrites have left more dead bytes than live ones.
func (sh *memShard) lockForWrite() {
	sh.mu.Lock()
	if sh.view.Load() != nil {
		sh.st.table = sh.st.table.clone()
		return
	}
	live := sh.resident - memKeyOverhead*int64(sh.st.table.live)
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

// compact copies the live records into fresh chunks and repoints the
// index.  The arena never recycles bytes — a slice handed to a reader
// (per-machine caches keep them) must stay valid — so this is how an
// overwritten value's memory is bounded: the old chunks stay intact for
// whoever still holds a slice of them and go to the garbage collector after
// that.
func (sh *memShard) compact() {
	old := sh.st.arena
	sh.st.arena = arena{nextCap: old.nextCap}
	slots := sh.st.table.slots
	for i := range slots {
		if s := &slots[i]; s.ref != refEmpty {
			s.ref = sh.st.arena.put(refBytes(old.chunks, s.ref))
		}
	}
}

// store writes value under key and keeps the resident estimate; the caller
// holds the shard for writing.
func (sh *memShard) store(key uint64, value []byte) {
	ref := sh.st.arena.put(value)
	old := sh.st.table.set(key, ref)
	sh.resident += int64(len(value))
	if old == refEmpty {
		sh.resident += memKeyOverhead
	} else {
		sh.resident -= int64(refLen(sh.st.arena.chunks, old))
	}
}

func (b *memBackend) Get(shard int, key uint64) ([]byte, bool, error) {
	sh := &b.shards[shard]
	if st := sh.view.Load(); st != nil {
		v, ok := st.get(key)
		return v, ok, nil
	}
	sh.mu.Lock()
	v, ok := sh.st.get(key)
	sh.mu.Unlock()
	return v, ok, nil
}

func (b *memBackend) Put(shard int, key uint64, value []byte) error {
	sh := &b.shards[shard]
	sh.lockForWrite()
	sh.store(key, value)
	sh.unlock()
	return nil
}

func (b *memBackend) BatchGet(shard int, keys []uint64) ([][]byte, []bool, error) {
	sh := &b.shards[shard]
	if st := sh.view.Load(); st != nil {
		vals, oks := st.batchGet(keys)
		return vals, oks, nil
	}
	sh.mu.Lock()
	vals, oks := sh.st.batchGet(keys)
	sh.mu.Unlock()
	return vals, oks, nil
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
		sh.st.table.reserve(per)
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

func (b *memBackend) LenShard(shard int) int {
	sh := &b.shards[shard]
	if st := sh.view.Load(); st != nil {
		return st.table.live
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.st.table.live
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
