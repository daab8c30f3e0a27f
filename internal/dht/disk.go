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
// index.  A write call encodes its records into the shard's scratch buffer,
// appends them with one positioned write, and repoints the index entries of
// the records that write completed.  A BatchGet reads into one buffer sized
// from the index, one positioned read per present key.  Values therefore never
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
// op 1 = put: the key's extent is this record's payload, and an overwrite's
// dead payload stays in the log, which is never rewritten.  Ops 2 and 3 are
// retired and never written: replay rejects them, like any other unknown
// op, as a corrupt log.

const (
	diskOpPut  = 1
	diskHeader = 1 + 8 + 4
)

// extent is one contiguous payload region inside a shard log.
type extent struct {
	off int64
	n   int32
}

// diskKeyBytes approximates the resident cost of one indexed key (map bucket
// slot, key, extent): what a key adds to ResidentBytes when it is first
// written or replayed.
const diskKeyBytes = 56

// diskTable is one shard's append log with its index, and the scratch buffer
// a write call encodes its records into (reused under the shard lock).
type diskTable struct {
	f       *os.File
	size    int64
	index   map[uint64]extent
	scratch []byte
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
		if op != diskOpPut || n < 0 {
			return fmt.Errorf("dht: corrupt disk log %s at offset %d", t.f.Name(), off)
		}
		if off+diskHeader+int64(n) > total {
			break // torn tail: record header written but payload incomplete
		}
		t.index[key] = extent{off: off + diskHeader, n: n}
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

// appendPut encodes one put record onto buf.
func appendPut(buf []byte, key uint64, value []byte) []byte {
	var hdr [diskHeader]byte
	hdr[0] = diskOpPut
	binary.LittleEndian.PutUint64(hdr[1:9], key)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(value)))
	return append(append(buf, hdr[:]...), value...)
}

// commit indexes the whole records at the front of recs, the bytes a write
// placed at the end of the log, and advances the log end past them.  A short
// write leaves its last record torn: it is not indexed, and the next write
// overwrites it, as the record-at-a-time loop this replaced did.
func (t *diskTable) commit(recs []byte) int64 {
	off := 0
	for off+diskHeader <= len(recs) {
		n := int(binary.LittleEndian.Uint32(recs[off+9 : off+13]))
		next := off + diskHeader + n
		if next > len(recs) {
			break
		}
		key := binary.LittleEndian.Uint64(recs[off+1 : off+9])
		t.index[key] = extent{off: t.size + int64(off+diskHeader), n: int32(n)}
		off = next
	}
	t.size += int64(off)
	return int64(off)
}

// errDiskClosed is what an operation finds after Close has released the
// shard's tables: a store used after Close returns an error instead of
// dereferencing a released table.
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

// flush appends recs, the records one call encoded into t's scratch buffer,
// at the end of the log with one positioned write, commits what the write
// completed, and adds the log bytes and index entries that added to the
// footprint gauges.  Every writer of the engine shares the gauges, so a call
// adds once, not once per record.  recs stays t's scratch buffer for the
// shard's next call.
func (b *diskBackend) flush(t *diskTable, recs []byte) error {
	t.scratch = recs
	keys := len(t.index)
	n, err := t.f.WriteAt(recs, t.size)
	b.disk.Add(t.commit(recs[:n]))
	if keys != len(t.index) {
		b.resident.Add(diskKeyBytes * int64(len(t.index)-keys))
	}
	return err
}

func (b *diskBackend) Put(shard int, key uint64, value []byte) error {
	return b.BatchWrite(shard, []Pair{{Key: key, Value: value}})
}

// BatchGet reads every present key's value into one buffer sized from the
// index, one positioned read per key.  Each value is a capacity-clipped
// slice of that buffer, so a caller's append cannot run into the next value.
func (b *diskBackend) BatchGet(shard int, keys []uint64) ([][]byte, []bool, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	t := sh.table
	if t == nil {
		return nil, nil, errDiskClosed
	}
	total := 0
	for _, k := range keys {
		total += int(t.index[k].n)
	}
	buf := make([]byte, total)
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	lo := 0
	for i, k := range keys {
		e, ok := t.index[k]
		if !ok {
			continue
		}
		oks[i] = true
		if e.n == 0 {
			continue
		}
		hi := lo + int(e.n)
		vals[i] = buf[lo:hi:hi]
		if _, err := t.f.ReadAt(vals[i], e.off); err != nil {
			return nil, nil, err
		}
		lo = hi
	}
	return vals, oks, nil
}

// BatchWrite appends one put record per pair with one positioned write.
func (b *diskBackend) BatchWrite(shard int, pairs []Pair) error {
	sh := b.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.table
	if t == nil {
		return errDiskClosed
	}
	recs := t.scratch[:0]
	for _, p := range pairs {
		recs = appendPut(recs, p.Key, p.Value)
	}
	return b.flush(t, recs)
}

// Reserve tells the engine that about keys entries are coming, spread over
// the shards: each empty shard's index is then sized once (its share plus
// 1/8 slack, as the mem engine sizes its tables) instead of grown by
// rehashing.  A shard that already holds keys keeps its index.
func (b *diskBackend) Reserve(keys int) {
	per := keys / len(b.shards)
	per += per/8 + 1
	for _, sh := range b.shards {
		sh.mu.Lock()
		if t := sh.table; t != nil && len(t.index) == 0 {
			t.index = make(map[uint64]extent, per)
		}
		sh.mu.Unlock()
	}
}

// Freeze syncs every log to stable storage: the store has become read-only,
// which is the natural durability point of an AMPC round boundary.  The
// write scratch buffers go with it.  A closed engine has nothing to sync.
func (b *diskBackend) Freeze() error {
	for _, sh := range b.shards {
		sh.mu.Lock()
		var err error
		if t := sh.table; t != nil {
			t.scratch = nil
			err = t.f.Sync()
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// LenShard returns 0 once the engine is closed.
func (b *diskBackend) LenShard(shard int) int {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.table == nil {
		return 0
	}
	return len(sh.table.index)
}

func (b *diskBackend) Range(shard int, fn func(key uint64, value []byte) bool) (bool, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.table == nil {
		return false, errDiskClosed
	}
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
