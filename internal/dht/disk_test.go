package dht

import (
	"errors"
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
	s := MustStore("d0", Options{Shards: 4, Backend: BackendDisk, DiskDir: dir})
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
