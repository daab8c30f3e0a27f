package dht

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestDiskRangeReportsReadErrors: a shard log that can no longer be read
// (here: truncated under the open store) makes Range return an error, not a
// panic inside the library.
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
}

// TestDiskResidentBytesCountIndexedKeys: the resident-index gauge charges a
// key one constant wherever the key enters the index — a Put, the replay of
// a reopened log — and nothing for an overwrite of an indexed key.
func TestDiskResidentBytesCountIndexedKeys(t *testing.T) {
	const shards, keys = 2, 100
	dir := t.TempDir()
	b, err := newDiskBackend(shards, dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		if err := b.Put(int(k%shards), k, memTestValue(k, 0)); err != nil {
			t.Fatal(err)
		}
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
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err = newDiskBackend(shards, dir); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	check("after a reopen", keys*diskKeyBytes)
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
// (the retired append op 2 and delete op 3 included) or whose length is
// negative is a corrupt-log error naming its offset; an incomplete last
// record is truncated away, leaving the file at the end of the last whole
// record; and the index holds exactly the keys a straightforward scan of the
// whole records leaves, each reading back its latest payload.
func FuzzDiskReplay(f *testing.F) {
	put := diskRecord(diskOpPut, 7, []byte("seven"))
	log := bytes.Join([][]byte{
		put,
		diskRecord(diskOpPut, 9, nil),
		diskRecord(diskOpPut, 7, []byte("again")),
	}, nil)
	first := diskRecord(diskOpPut, 11, []byte("first"))
	batch := bytes.Join([][]byte{
		first,
		diskRecord(diskOpPut, 12, []byte("second")),
		diskRecord(diskOpPut, 13, []byte("third")),
	}, nil)
	with := func(tail []byte) []byte { return append(append([]byte(nil), log...), tail...) }
	f.Add(log)
	f.Add(with(put[:5]))                          // torn header
	f.Add(with(put[:diskHeader+2]))               // torn payload
	f.Add(with(diskRecord(2, 7, []byte("tail")))) // the retired append record
	f.Add(with(diskRecord(3, 9, nil)))            // the retired delete record
	f.Add(with(batch[:len(first)+diskHeader+3]))  // one write's three records, torn inside the second
	f.Fuzz(func(t *testing.T, data []byte) {
		want := make(map[uint64][]byte)
		end, corruptAt := 0, -1
		for end+diskHeader <= len(data) {
			op := data[end]
			key := binary.LittleEndian.Uint64(data[end+1:])
			n := int64(int32(binary.LittleEndian.Uint32(data[end+9:])))
			if op != diskOpPut || n < 0 {
				corruptAt = end
				break
			}
			next := int64(end) + diskHeader + n
			if next > int64(len(data)) {
				break
			}
			want[key] = data[end+diskHeader : next]
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

// TestDiskCommitIndexesWholeRecords: a write that completes only n bytes of
// its batch indexes the whole records among them and nothing of the torn
// one, and moves the log end past the whole records only — for every n.
func TestDiskCommitIndexesWholeRecords(t *testing.T) {
	recs := [][]byte{
		diskRecord(diskOpPut, 1, []byte("one")),
		diskRecord(diskOpPut, 2, nil),
		diskRecord(diskOpPut, 1, []byte("uno")),
		diskRecord(diskOpPut, 3, []byte("three")),
	}
	batch := bytes.Join(recs, nil)
	const base = 100 // the log end before the write
	for n := 0; n <= len(batch); n++ {
		want := map[uint64]extent{1: {off: 7, n: 1}} // an entry the batch overwrites
		end, off := 0, int64(base)
		for _, rec := range recs {
			if end+len(rec) > n {
				break
			}
			key := binary.LittleEndian.Uint64(rec[1:9])
			want[key] = extent{off: off + diskHeader, n: int32(len(rec) - diskHeader)}
			end += len(rec)
			off += int64(len(rec))
		}
		tab := &diskTable{size: base, index: map[uint64]extent{1: {off: 7, n: 1}}}
		if grew := tab.commit(batch[:n]); grew != int64(end) || tab.size != base+int64(end) {
			t.Fatalf("n=%d: commit grew the log by %d to %d, want %d to %d", n, grew, tab.size, end, base+end)
		}
		if !reflect.DeepEqual(tab.index, want) {
			t.Fatalf("n=%d: index %v, want %v", n, tab.index, want)
		}
	}
}

// TestDiskBatchAllocs pins the disk engine's allocations per call: a
// BatchWrite into a reserved index encodes into the shard's reused scratch
// buffer and makes none, and a BatchGet makes its values, its present flags
// and one buffer for every value's bytes, whatever the number of keys.
func TestDiskBatchAllocs(t *testing.T) {
	const batch, batches = 64, 16
	b, err := newDiskBackend(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Reserve(2 * batch * batches)
	pairs := make([]Pair, batch)
	value := []byte("twelve bytes")
	next := uint64(0)
	write := func() {
		for n := 0; n < batches; n++ {
			for i := range pairs {
				pairs[i] = Pair{Key: next, Value: value}
				next++
			}
			if err := b.BatchWrite(0, pairs); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The warm-up call leaves a batch in the scratch buffer; the measured
	// call writes batches more fresh keys into the reserved index.
	if allocs := testing.AllocsPerRun(1, write); allocs != 0 {
		t.Fatalf("%d warm BatchWrites of %d pairs into a reserved index make %.0f allocations, want 0", batches, batch, allocs)
	}
	for _, n := range []int{1, 256} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i * 17) // past 2 048, beyond every written key: absent
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := b.BatchGet(0, keys); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Fatalf("BatchGet of %d keys makes %.1f allocations, want <= 3", n, allocs)
		}
	}
}

// TestDiskBatchGetValuesAreClipped: the values of one BatchGet share a
// buffer, each capacity-clipped, so appending to one leaves the next intact.
func TestDiskBatchGetValuesAreClipped(t *testing.T) {
	b, err := newDiskBackend(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.BatchWrite(0, []Pair{{Key: 1, Value: []byte("ab")}, {Key: 2, Value: []byte("cd")}}); err != nil {
		t.Fatal(err)
	}
	vals, oks, err := b.BatchGet(0, []uint64{1, 3, 2})
	if err != nil || !oks[0] || oks[1] || !oks[2] {
		t.Fatalf("BatchGet: %q %v %v", vals, oks, err)
	}
	_ = append(vals[0], 'x')
	if string(vals[0]) != "ab" || string(vals[2]) != "cd" || cap(vals[0]) != 2 {
		t.Fatalf("after an append to the first value: %q, %q (cap %d)", vals[0], vals[2], cap(vals[0]))
	}
}
