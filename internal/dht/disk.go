package dht

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// The disk backend holds bytes past RAM and is durable at Freeze.
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
// stay in the log, which is never rewritten).  Op 2 is retired and never
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

// diskTable is one shard's append log with its index.
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

// diskShard is one shard: its table behind the lock that orders appends.
type diskShard struct {
	mu    sync.RWMutex
	table *diskTable
}

// diskBackend implements ShardBackend over per-shard log files in dir.
type diskBackend struct {
	dir      string
	shards   []*diskShard
	disk     atomic.Int64 // bytes appended to the logs
	resident atomic.Int64 // index overhead estimate
}

// newDiskBackend opens (or creates) one log per shard under dir, replaying any
// existing logs.  dir must be non-empty; callers that want a throwaway store
// pass a fresh temporary directory (an ampc Session does this automatically).
func newDiskBackend(shards int, dir string) (*diskBackend, error) {
	if dir == "" {
		return nil, fmt.Errorf("dht: backend %q requires Options.DiskDir", BackendDisk)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dht: creating disk dir: %w", err)
	}
	b := &diskBackend{dir: dir, shards: make([]*diskShard, shards)}
	for i := range b.shards {
		t, err := openDiskTable(filepath.Join(dir, fmt.Sprintf("shard-%04d.log", i)))
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("dht: opening shard %d: %w", i, err)
		}
		b.shards[i] = &diskShard{table: t}
		b.disk.Add(t.size)
		b.resident.Add(t.indexCost())
	}
	return b, nil
}

func (b *diskBackend) Kind() BackendKind { return BackendDisk }

func (b *diskBackend) Get(shard int, key uint64) ([]byte, bool, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.table.read(key)
}

// account adds the log bytes a call appended and the index entries it added
// (or, negative, removed) to the footprint gauges.  Every writer of the
// engine shares them, so a call adds once, not once per record.
func (b *diskBackend) account(bytes int64, keys int) {
	b.disk.Add(bytes)
	if keys != 0 {
		b.resident.Add(diskKeyBytes * int64(keys))
	}
}

func (b *diskBackend) Put(shard int, key uint64, value []byte) error {
	return b.BatchWrite(shard, []Pair{{Key: key, Value: value}})
}

func (b *diskBackend) BatchGet(shard int, keys []uint64) ([][]byte, []bool, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	for i, k := range keys {
		v, ok, err := sh.table.read(k)
		if err != nil {
			return nil, nil, err
		}
		vals[i], oks[i] = v, ok
	}
	return vals, oks, nil
}

func (b *diskBackend) BatchWrite(shard int, pairs []Pair) error {
	sh := b.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	keys := len(sh.table.index)
	var bytes int64
	var err error
	for _, p := range pairs {
		var n int64
		if n, err = sh.table.write(diskOpPut, p.Key, p.Value); err != nil {
			break
		}
		bytes += n
	}
	b.account(bytes, len(sh.table.index)-keys)
	return err
}

// BatchDelete appends one tombstone record per present key, dropping the
// keys' index entries.  The dead payload bytes stay in the log (DiskBytes
// grows by the tombstone headers) while the resident index shrinks — the
// same footprint trade every log-structured store makes until compaction.
func (b *diskBackend) BatchDelete(shard int, keys []uint64) error {
	sh := b.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	indexed := len(sh.table.index)
	var bytes int64
	var err error
	for _, k := range keys {
		if _, ok := sh.table.index[k]; ok {
			var n int64
			if n, err = sh.table.write(diskOpDelete, k, nil); err != nil {
				break
			}
			bytes += n
		}
	}
	b.account(bytes, len(sh.table.index)-indexed)
	return err
}

// Freeze syncs every log to stable storage: the store has become read-only,
// which is the natural durability point of an AMPC round boundary.
func (b *diskBackend) Freeze() error {
	for _, sh := range b.shards {
		sh.mu.Lock()
		err := sh.table.f.Sync()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *diskBackend) LenShard(shard int) int {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.table.index)
}

func (b *diskBackend) Range(shard int, fn func(key uint64, value []byte) bool) (bool, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for k := range sh.table.index {
		v, _, err := sh.table.read(k)
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
		if sh.table != nil {
			if err := sh.table.close(); err != nil && first == nil {
				first = err
			}
			sh.table = nil
		}
		sh.mu.Unlock()
	}
	return first
}
