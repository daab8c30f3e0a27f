package dht

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiskRangeReportsReadErrors: a shard log that can no longer be read
// (here: truncated under the open store) makes Range and Rebalance return an
// error — it used to panic inside the library — and Rebalance fails before
// it has moved anything.
func TestDiskRangeReportsReadErrors(t *testing.T) {
	dir := t.TempDir()
	s := mustStore("d0", Options{Shards: 4, Backend: BackendDisk, DiskDir: dir})
	defer s.Close()
	for k := uint64(0); k < 64; k++ {
		if err := s.Put(k, memTestValue(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	if err := s.Range(func(uint64, []byte) bool { seen++; return true }); err != nil || seen != 64 {
		t.Fatalf("Range of the healthy store: %d pairs, err %v", seen, err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "shard-*.log"))
	if err != nil || len(logs) != 4 {
		t.Fatalf("shard logs: %v, %v", logs, err)
	}
	for _, path := range logs {
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
	}
	err = s.Range(func(uint64, []byte) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "reading shard") {
		t.Fatalf("Range over unreadable logs returned %v, want a read error", err)
	}
	before := s.Placement()
	st, err := s.Rebalance(OwnerAffine(2, 64))
	if err == nil || !strings.Contains(err.Error(), "dht: rebalance d0: reading shard") {
		t.Fatalf("Rebalance over unreadable logs returned %v, want a read error", err)
	}
	if st != (MigrationStats{}) || s.Placement() != before {
		t.Fatalf("a failed Rebalance reported %+v and placement %s: it must not have started moving", st, s.Placement().Name())
	}
}

// TestDiskReadAfterCloseIsAnError: the losing copy of a hedged batch read
// can reach the engine after its job has closed the store; it must get an
// error back, not dereference a released table.
func TestDiskReadAfterCloseIsAnError(t *testing.T) {
	b, err := newDiskBackend(2, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(1, 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := b.Get(1, 7); !errors.Is(err, errDiskClosed) {
		t.Fatalf("Get after Close: %v, want errDiskClosed", err)
	}
	if _, _, _, err := b.BatchGet(1, []uint64{7, 9}); !errors.Is(err, errDiskClosed) {
		t.Fatalf("BatchGet after Close: %v, want errDiskClosed", err)
	}
}

// TestDiskResidentBytesReturnToZero: the resident-index gauge charges a key
// one constant wherever the key enters the index — a Put, RecoverShard's
// rebuild of the primary, the replay of a reopened log — and credits the same
// constant when the key is deleted, so deleting every key returns it to zero.
// (It used to charge 56 bytes on a Put and credit 72 everywhere else.)
func TestDiskResidentBytesReturnToZero(t *testing.T) {
	const shards, keys = 2, 100
	dir := t.TempDir()
	b, err := newDiskBackend(shards, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	byShard := make([][]uint64, shards)
	for k := uint64(0); k < keys; k++ {
		shard := int(k % shards)
		if err := b.Put(shard, k, memTestValue(k, 0)); err != nil {
			t.Fatal(err)
		}
		byShard[shard] = append(byShard[shard], k)
	}
	check := func(when string, want int64) {
		t.Helper()
		if got := b.Stats().ResidentBytes; got != want {
			t.Fatalf("ResidentBytes %s = %d, want %d", when, got, want)
		}
	}
	check("after the puts", keys*diskKeyBytes)
	if err := b.Put(0, 0, []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	check("after an overwrite", keys*diskKeyBytes)
	b.FailShard(0)
	if err := b.RecoverShard(0); err != nil {
		t.Fatal(err)
	}
	check("after FailShard/RecoverShard", keys*diskKeyBytes)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err = newDiskBackend(shards, true, dir); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	check("after a reopen", keys*diskKeyBytes)
	for shard, ks := range byShard {
		if err := b.BatchDelete(shard, ks); err != nil {
			t.Fatal(err)
		}
	}
	check("after deleting every key", 0)
}

// diskRecord is one log record as the disk engine writes it.
func diskRecord(op byte, key uint64, payload []byte) []byte {
	rec := make([]byte, diskHeader, diskHeader+len(payload))
	rec[0] = op
	binary.LittleEndian.PutUint64(rec[1:9], key)
	binary.LittleEndian.PutUint32(rec[9:13], uint32(len(payload)))
	return append(rec, payload...)
}

// FuzzDiskReplay opens arbitrary bytes as a shard log.  openDiskTable must
// return a table or an error and never panic: a record whose op is not put
// or delete (the retired append op 2 included) or whose length is negative
// is a corrupt-log error naming its offset; an incomplete last record is
// truncated away, leaving the file at the end of the last whole record; and
// the index holds exactly the keys a straightforward scan of the whole
// records leaves, each reading back its latest payload.
func FuzzDiskReplay(f *testing.F) {
	put := diskRecord(diskOpPut, 7, []byte("seven"))
	log := bytes.Join([][]byte{
		put,
		diskRecord(diskOpPut, 9, nil),
		diskRecord(diskOpPut, 7, []byte("again")),
		diskRecord(diskOpDelete, 9, nil),
	}, nil)
	with := func(tail []byte) []byte { return append(append([]byte(nil), log...), tail...) }
	f.Add(log)
	f.Add(with(put[:5]))                          // torn header
	f.Add(with(put[:diskHeader+2]))               // torn payload
	f.Add(with(diskRecord(2, 7, []byte("tail")))) // the retired append record
	f.Fuzz(func(t *testing.T, data []byte) {
		want := make(map[uint64][]byte)
		end, corruptAt := 0, -1
		for end+diskHeader <= len(data) {
			op := data[end]
			key := binary.LittleEndian.Uint64(data[end+1:])
			n := int64(int32(binary.LittleEndian.Uint32(data[end+9:])))
			if (op != diskOpPut && op != diskOpDelete) || n < 0 {
				corruptAt = end
				break
			}
			next := int64(end) + diskHeader + n
			if next > int64(len(data)) {
				break
			}
			if op == diskOpPut {
				want[key] = data[end+diskHeader : next]
			} else {
				delete(want, key)
			}
			end = int(next)
		}

		path := filepath.Join(t.TempDir(), "shard.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		table, err := openDiskTable(path)
		if corruptAt >= 0 {
			suffix := fmt.Sprintf("at offset %d", corruptAt)
			if err == nil || !strings.Contains(err.Error(), "corrupt disk log") || !strings.HasSuffix(err.Error(), suffix) {
				t.Fatalf("a bad record at offset %d: openDiskTable returned %v", corruptAt, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("a log of whole records and a torn tail: %v", err)
		}
		defer table.close()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != int64(end) || table.size != int64(end) {
			t.Fatalf("%d input bytes, last whole record ends at %d: file is %d bytes, table.size %d",
				len(data), end, info.Size(), table.size)
		}
		if len(table.index) != len(want) {
			t.Fatalf("index holds %d keys, the scan %d", len(table.index), len(want))
		}
		for key := range table.index {
			v, ok, err := table.read(key)
			if w, held := want[key]; err != nil || !ok || !held || !bytes.Equal(v, w) {
				t.Fatalf("key %d reads (%q, %v, %v), the scan holds (%q, %v)", key, v, ok, err, w, held)
			}
		}
	})
}
