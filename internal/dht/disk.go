package dht

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// The disk backend.
//
// Each shard is a log-structured append-only file plus an in-memory offset
// index: a Put appends one record and repoints the key's index entry at it,
// and a Get is one positioned read of that extent.  Values therefore never
// occupy RAM between operations — only the fixed-size index entries do — so a
// store whose payload far exceeds the configured memory budget still
// completes (the property PIMDAL calls out as the limiting factor for this
// workload class).  Opening an existing directory replays the logs, truncating
// a torn tail record, which is what makes the crash/reopen round trip work.
//
// On-disk record layout (little endian):
//
//	[1B op] [8B key] [4B payload length] [payload]
//
// op 1 = put (the key's extent is this record's payload), op 3 = delete (a
// zero-payload tombstone that drops the key's extent; the dead payload bytes
// stay in the log until the shard is rewritten).  Op 2 is retired and never
// written: replay rejects it, like any other unknown op, as a corrupt log.

const (
	diskOpPut    = 1
	diskOpDelete = 3
	diskHeader   = 1 + 8 + 4
)

// extent is one contiguous payload region inside a shard log.
type extent struct {
	off int64
	n   int32
}

// diskKeyBytes approximates the resident cost of one indexed key (map bucket
// slot, key, extent): what a key adds to ResidentBytes when it is first
// written or replayed, and what it gives back when it is deleted.
const diskKeyBytes = 56

// diskTable is one append log with its index: the primary or the replica of a
// shard.
type diskTable struct {
	f     *os.File
	size  int64
	index map[uint64]extent
}

// openDiskTable opens or creates the log at path and replays it into a fresh
// index.  A torn final record (crash mid-write) is truncated away.
func openDiskTable(path string) (*diskTable, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	t := &diskTable{f: f, index: make(map[uint64]extent)}
	if err := t.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// replay scans the log from the start, rebuilding the index, and truncates the
// file at the first incomplete record.
func (t *diskTable) replay() error {
	info, err := t.f.Stat()
	if err != nil {
		return err
	}
	total := info.Size()
	var hdr [diskHeader]byte
	var off int64
	for off+diskHeader <= total {
		if _, err := t.f.ReadAt(hdr[:], off); err != nil {
			return err
		}
		op := hdr[0]
		key := binary.LittleEndian.Uint64(hdr[1:9])
		n := int32(binary.LittleEndian.Uint32(hdr[9:13]))
		if (op != diskOpPut && op != diskOpDelete) || n < 0 {
			return fmt.Errorf("dht: corrupt disk log %s at offset %d", t.f.Name(), off)
		}
		if off+diskHeader+int64(n) > total {
			break // torn tail: record header written but payload incomplete
		}
		ext := extent{off: off + diskHeader, n: n}
		switch op {
		case diskOpPut:
			t.index[key] = ext
		case diskOpDelete:
			delete(t.index, key)
		}
		off += diskHeader + int64(n)
	}
	if off < total {
		if err := t.f.Truncate(off); err != nil {
			return err
		}
	}
	t.size = off
	return nil
}

// write appends one record and updates the index.  Returns the record size.
func (t *diskTable) write(op byte, key uint64, value []byte) (int64, error) {
	rec := make([]byte, diskHeader+len(value))
	rec[0] = op
	binary.LittleEndian.PutUint64(rec[1:9], key)
	binary.LittleEndian.PutUint32(rec[9:13], uint32(len(value)))
	copy(rec[diskHeader:], value)
	if _, err := t.f.WriteAt(rec, t.size); err != nil {
		return 0, err
	}
	ext := extent{off: t.size + diskHeader, n: int32(len(value))}
	switch op {
	case diskOpPut:
		t.index[key] = ext
	case diskOpDelete:
		delete(t.index, key)
	}
	t.size += int64(len(rec))
	return int64(len(rec)), nil
}

// errDiskClosed is what a read finds after Close has released the shard's
// tables: the losing copy of a hedged batch read can still be in flight when
// its job closes the store.
var errDiskClosed = errors.New("dht: disk backend is closed")

// read returns the key's extent.  A zero-length value returns nil, matching
// the mem backend's value for an empty Put.
func (t *diskTable) read(key uint64) ([]byte, bool, error) {
	if t == nil {
		return nil, false, errDiskClosed
	}
	e, ok := t.index[key]
	if !ok {
		return nil, false, nil
	}
	if e.n == 0 {
		return nil, true, nil
	}
	buf := make([]byte, e.n)
	if _, err := t.f.ReadAt(buf, e.off); err != nil {
		return nil, false, err
	}
	return buf, true, nil
}

// indexCost estimates the resident footprint of the table's index.
func (t *diskTable) indexCost() int64 { return diskKeyBytes * int64(len(t.index)) }

func (t *diskTable) close() error { return t.f.Close() }

// diskShard pairs a primary table with an optional replica table and the
// simulated failure flag.
type diskShard struct {
	mu     sync.RWMutex
	prim   *diskTable
	rep    *diskTable
	failed bool
}

// diskBackend implements ShardBackend over per-shard log files in dir.
type diskBackend struct {
	dir      string
	shards   []*diskShard
	disk     atomic.Int64 // bytes appended to primary logs
	resident atomic.Int64 // index overhead estimate
}

// newDiskBackend opens (or creates) one log per shard under dir, replaying any
// existing logs.  dir must be non-empty; callers that want a throwaway store
// pass a fresh temporary directory (an ampc Session does this automatically).
func newDiskBackend(shards int, replicate bool, dir string) (*diskBackend, error) {
	if dir == "" {
		return nil, fmt.Errorf("dht: backend %q requires Options.DiskDir", BackendDisk)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dht: creating disk dir: %w", err)
	}
	b := &diskBackend{dir: dir, shards: make([]*diskShard, shards)}
	for i := range b.shards {
		prim, err := openDiskTable(filepath.Join(dir, fmt.Sprintf("shard-%04d.log", i)))
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("dht: opening shard %d: %w", i, err)
		}
		sh := &diskShard{prim: prim}
		if replicate {
			rep, err := openDiskTable(filepath.Join(dir, fmt.Sprintf("shard-%04d.rep.log", i)))
			if err != nil {
				prim.close()
				b.Close()
				return nil, fmt.Errorf("dht: opening shard %d replica: %w", i, err)
			}
			sh.rep = rep
		}
		b.shards[i] = sh
		b.disk.Add(prim.size)
		b.resident.Add(prim.indexCost())
	}
	return b, nil
}

func (b *diskBackend) Kind() BackendKind { return BackendDisk }

// accountWrite tracks the footprint deltas of one record written to the
// primary: recBytes on disk, and the index growth in RAM.
func (b *diskBackend) accountWrite(recBytes int64, newKey bool) {
	b.disk.Add(recBytes)
	if newKey {
		b.resident.Add(diskKeyBytes)
	}
}

func (b *diskBackend) Get(shard int, key uint64) ([]byte, bool, bool, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.failed {
		if sh.rep == nil {
			return nil, false, false, ErrUnavailable
		}
		v, ok, err := sh.rep.read(key)
		return v, ok, true, err
	}
	v, ok, err := sh.prim.read(key)
	return v, ok, false, err
}

// writeLocked appends one put record to the primary (and replica) of sh,
// assuming sh.mu is held for writing.
func (b *diskBackend) writeLocked(sh *diskShard, key uint64, value []byte) error {
	_, hadKey := sh.prim.index[key]
	n, err := sh.prim.write(diskOpPut, key, value)
	if err != nil {
		return err
	}
	b.accountWrite(n, !hadKey)
	if sh.rep != nil {
		if _, err := sh.rep.write(diskOpPut, key, value); err != nil {
			return err
		}
	}
	return nil
}

func (b *diskBackend) Put(shard int, key uint64, value []byte) error {
	sh := b.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return b.writeLocked(sh, key, value)
}

func (b *diskBackend) BatchGet(shard int, keys []uint64) ([][]byte, []bool, int, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.failed && sh.rep == nil {
		return nil, nil, 0, ErrUnavailable
	}
	table := sh.prim
	failovers := 0
	if sh.failed {
		table = sh.rep
		failovers = len(keys)
	}
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	for i, k := range keys {
		v, ok, err := table.read(k)
		if err != nil {
			return nil, nil, 0, err
		}
		vals[i], oks[i] = v, ok
	}
	return vals, oks, failovers, nil
}

func (b *diskBackend) BatchWrite(shard int, pairs []Pair) error {
	sh := b.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, p := range pairs {
		if err := b.writeLocked(sh, p.Key, p.Value); err != nil {
			return err
		}
	}
	return nil
}

// BatchDelete appends one tombstone record per present key, dropping the
// keys' index entries.  The dead payload bytes stay in the log (DiskBytes
// grows by the tombstone headers) while the resident index shrinks — the
// same footprint trade every log-structured store makes until compaction.
func (b *diskBackend) BatchDelete(shard int, keys []uint64) error {
	sh := b.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, k := range keys {
		if _, ok := sh.prim.index[k]; ok {
			n, err := sh.prim.write(diskOpDelete, k, nil)
			if err != nil {
				return err
			}
			b.disk.Add(n)
			b.resident.Add(-diskKeyBytes)
		}
		if sh.rep != nil {
			if _, ok := sh.rep.index[k]; ok {
				if _, err := sh.rep.write(diskOpDelete, k, nil); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Freeze syncs every log to stable storage: the store has become read-only,
// which is the natural durability point of an AMPC round boundary.
func (b *diskBackend) Freeze() error {
	for _, sh := range b.shards {
		sh.mu.Lock()
		err := sh.prim.f.Sync()
		if err == nil && sh.rep != nil {
			err = sh.rep.f.Sync()
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *diskBackend) FailShard(shard int) {
	sh := b.shards[shard]
	sh.mu.Lock()
	sh.failed = true
	sh.mu.Unlock()
}

// RecoverShard clears the failure flag and, when a replica exists, rebuilds
// the primary from it — rewriting the primary log with one put per key, in
// sorted key order for determinism.
func (b *diskBackend) RecoverShard(shard int) error {
	sh := b.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.failed = false
	if sh.rep == nil {
		return nil
	}
	b.resident.Add(-sh.prim.indexCost())
	b.disk.Add(-sh.prim.size)
	if err := sh.prim.f.Truncate(0); err != nil {
		return fmt.Errorf("dht: truncating primary during recovery: %w", err)
	}
	sh.prim.size = 0
	sh.prim.index = make(map[uint64]extent, len(sh.rep.index))
	keys := make([]uint64, 0, len(sh.rep.index))
	for k := range sh.rep.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		v, ok, err := sh.rep.read(k)
		if err != nil || !ok {
			return fmt.Errorf("dht: reading replica during recovery of shard %d: ok=%v err=%v", shard, ok, err)
		}
		n, err := sh.prim.write(diskOpPut, k, v)
		if err != nil {
			return fmt.Errorf("dht: rebuilding primary during recovery: %w", err)
		}
		b.accountWrite(n, true)
	}
	return nil
}

func (b *diskBackend) LenShard(shard int) int {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.prim.index)
}

func (b *diskBackend) Range(shard int, fn func(key uint64, value []byte) bool) (bool, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for k := range sh.prim.index {
		v, _, err := sh.prim.read(k)
		if err != nil {
			return false, fmt.Errorf("key %d: %w", k, err)
		}
		if !fn(k, v) {
			return false, nil
		}
	}
	return true, nil
}

func (b *diskBackend) Stats() BackendStats {
	return BackendStats{
		Kind:          BackendDisk,
		DiskBytes:     b.disk.Load(),
		ResidentBytes: b.resident.Load(),
	}
}

// Close closes every log file.  The files stay on disk so the store can be
// reopened (the crash/reopen round trip); deleting the directory is the
// owner's job.
func (b *diskBackend) Close() error {
	var first error
	for _, sh := range b.shards {
		if sh == nil {
			continue
		}
		sh.mu.Lock()
		if sh.prim != nil {
			if err := sh.prim.close(); err != nil && first == nil {
				first = err
			}
			sh.prim = nil
		}
		if sh.rep != nil {
			if err := sh.rep.close(); err != nil && first == nil {
				first = err
			}
			sh.rep = nil
		}
		sh.mu.Unlock()
	}
	return first
}
