package dht

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Parameterized backend suite: the freeze, replication-failover and
// mid-batch-failure semantics pinned by the original store tests must hold
// identically behind every ShardBackend, because the Store façade above the
// seam is the only place counters and errors are produced.

// backendCases enumerates the backends under test; disk gets a fresh
// temporary directory per subtest and rpc a fresh loopback server.
func backendCases() []BackendKind {
	return BackendKinds()
}

// storeForBackend builds a store of the given kind, registering cleanup.
func storeForBackend(t *testing.T, kind BackendKind, opts Options) *Store {
	t.Helper()
	opts.Backend = kind
	if kind == BackendDisk {
		opts.DiskDir = t.TempDir()
	}
	s, err := NewStore("d0", opts)
	if err != nil {
		t.Fatalf("NewStore(%s): %v", kind, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestBackendsFreezeSemantics(t *testing.T) {
	for _, kind := range backendCases() {
		t.Run(string(kind), func(t *testing.T) {
			s := storeForBackend(t, kind, Options{Shards: 4})
			if err := s.Put(1, []byte("a")); err != nil {
				t.Fatal(err)
			}
			s.Freeze()
			if !s.Frozen() {
				t.Fatal("store should report frozen")
			}
			if err := s.Put(2, []byte("b")); !errors.Is(err, ErrFrozen) {
				t.Fatalf("Put on frozen store: %v, want ErrFrozen", err)
			}
			if _, err := s.BatchPut([]Pair{{Key: 3, Value: []byte("d")}}); !errors.Is(err, ErrFrozen) {
				t.Fatalf("BatchPut on frozen store: %v, want ErrFrozen", err)
			}
			// Reads keep working, and the rejected writes left no trace.
			v, ok, err := s.Get(1)
			if err != nil || !ok || string(v) != "a" {
				t.Fatalf("Get(1) on frozen store: %q %v %v", v, ok, err)
			}
			if st := s.Stats(); st.Writes != 1 || st.Keys != 1 {
				t.Fatalf("frozen store stats: %+v, want 1 write / 1 key", st)
			}
		})
	}
}

func TestBackendsReplicationFailover(t *testing.T) {
	for _, kind := range backendCases() {
		t.Run(string(kind), func(t *testing.T) {
			s := storeForBackend(t, kind, Options{Shards: 4, Replicate: true})
			for k := uint64(0); k < 64; k++ {
				if err := s.Put(k, []byte{byte(k)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < s.NumShards(); i++ {
				s.FailShard(i)
			}
			for k := uint64(0); k < 64; k++ {
				v, ok, err := s.Get(k)
				if err != nil || !ok || v[0] != byte(k) {
					t.Fatalf("key %d during total failure: %v %v %v", k, v, ok, err)
				}
			}
			if fo := s.Stats().Failovers; fo != 64 {
				t.Fatalf("Failovers = %d, want 64 (every read served by a replica)", fo)
			}
			// A miss through the replica still counts as a failover and a miss.
			if _, ok, err := s.Get(1 << 40); ok || err != nil {
				t.Fatalf("absent key during failure: ok=%v err=%v", ok, err)
			}
			st := s.Stats()
			if st.Failovers != 65 || st.Misses != 1 {
				t.Fatalf("stats after replica miss: failovers=%d misses=%d, want 65/1", st.Failovers, st.Misses)
			}
			// Recovery brings the primary back; reads stop
			// counting failovers.
			for i := 0; i < s.NumShards(); i++ {
				s.RecoverShard(i)
			}
			for k := uint64(0); k < 64; k++ {
				v, ok, err := s.Get(k)
				if err != nil || !ok || v[0] != byte(k) {
					t.Fatalf("key %d after recovery: %v %v %v", k, v, ok, err)
				}
			}
			if fo := s.Stats().Failovers; fo != 65 {
				t.Fatalf("Failovers = %d after recovery, want unchanged 65", fo)
			}
		})
	}
}

func TestBackendsUnreplicatedFailureIsUnavailable(t *testing.T) {
	for _, kind := range backendCases() {
		t.Run(string(kind), func(t *testing.T) {
			s := storeForBackend(t, kind, Options{Shards: 4})
			key := keysOnShard(s, 2, 1)[0]
			if err := s.Put(key, []byte("x")); err != nil {
				t.Fatal(err)
			}
			s.FailShard(2)
			_, _, err := s.Get(key)
			if !errors.Is(err, ErrUnavailable) {
				t.Fatalf("Get on failed unreplicated shard: %v, want ErrUnavailable", err)
			}
			if !strings.Contains(err.Error(), fmt.Sprint(key)) {
				t.Fatalf("error %q does not name key %d", err, key)
			}
			// Off-shard keys are unaffected; recovery restores the shard with
			// its data intact (the primary was never touched).
			off := keysOffShard(s, 2, 1)[0]
			if err := s.Put(off, []byte("y")); err != nil {
				t.Fatalf("Put off the failed shard: %v", err)
			}
			s.RecoverShard(2)
			v, ok, err := s.Get(key)
			if err != nil || !ok || string(v) != "x" {
				t.Fatalf("key %d after unreplicated recovery: %q %v %v", key, v, ok, err)
			}
		})
	}
}

func TestBackendsFailShardMidBatch(t *testing.T) {
	for _, kind := range backendCases() {
		t.Run(string(kind), func(t *testing.T) {
			s := storeForBackend(t, kind, Options{Shards: 8})
			lastShard := 7
			healthy := keysOffShard(s, lastShard, 32)
			broken := keysOnShard(s, lastShard, 4)
			keys := append(append([]uint64(nil), healthy...), broken...)
			for _, k := range healthy {
				if err := s.Put(k, []byte{1, 2, 3, 4}); err != nil { // 4 bytes + 8 header
					t.Fatal(err)
				}
			}
			before := s.Stats()
			s.FailShard(lastShard)

			_, _, visits, err := s.BatchGet(keys)
			if !errors.Is(err, ErrUnavailable) {
				t.Fatalf("err = %v, want ErrUnavailable", err)
			}
			if visits != 8 {
				t.Fatalf("visits = %d, want all 8 shards reached before the failure surfaced", visits)
			}
			after := s.Stats()
			if got := after.Reads - before.Reads; got != int64(len(keys)) {
				t.Fatalf("Reads grew by %d, want %d", got, len(keys))
			}
			wantBytes := int64(len(healthy)) * 12
			if got := after.BytesRead - before.BytesRead; got != wantBytes {
				t.Fatalf("BytesRead grew by %d, want %d (healthy shards served pre-failure)", got, wantBytes)
			}
			if got := after.Misses - before.Misses; got != 0 {
				t.Fatalf("Misses grew by %d, want 0", got)
			}
			if after.Failovers != before.Failovers {
				t.Fatal("unreplicated failure must not count failovers")
			}
		})
	}
}

func TestBackendsValueRoundTrip(t *testing.T) {
	// Every backend must return byte-identical values for the same sequence
	// of puts, overwrites and batches — including the nil-vs-empty
	// edge: an empty Put reads back as a present key with a nil/empty value.
	type result struct {
		val []byte
		ok  bool
	}
	run := func(t *testing.T, kind BackendKind) map[uint64]result {
		s := storeForBackend(t, kind, Options{Shards: 4})
		if err := s.Put(1, []byte("alpha")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(1, []byte("beta")); err != nil { // overwrite
			t.Fatal(err)
		}
		if err := s.Put(2, []byte("abc")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(3, nil); err != nil { // empty value
			t.Fatal(err)
		}
		if _, err := s.BatchPut([]Pair{{Key: 4, Value: []byte("dd")}, {Key: 5, Value: []byte("e")}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.BatchPut([]Pair{{Key: 2, Value: []byte("f")}, {Key: 4, Value: []byte("g")}}); err != nil { // batched overwrite
			t.Fatal(err)
		}
		out := make(map[uint64]result)
		keys := []uint64{1, 2, 3, 4, 5, 6}
		vals, oks, _, err := s.BatchGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			out[k] = result{val: append([]byte(nil), vals[i]...), ok: oks[i]}
			// Single-key reads agree with the batch.
			v, ok, err := s.Get(k)
			if err != nil || ok != oks[i] || !bytes.Equal(v, vals[i]) {
				t.Fatalf("%s: Get(%d) = %q,%v disagrees with batch %q,%v (err %v)", kind, k, v, ok, vals[i], oks[i], err)
			}
		}
		if got := s.Len(); got != 5 {
			t.Fatalf("%s: Len = %d, want 5", kind, got)
		}
		return out
	}
	want := run(t, BackendMem)
	for _, kind := range []BackendKind{BackendDisk, BackendRPC} {
		t.Run(string(kind), func(t *testing.T) {
			got := run(t, kind)
			for k, w := range want {
				g := got[k]
				if g.ok != w.ok || !bytes.Equal(g.val, w.val) {
					t.Fatalf("key %d: %s returned %q,%v, mem returned %q,%v", k, kind, g.val, g.ok, w.val, w.ok)
				}
			}
		})
	}
}

func TestNewStoreRejectsUnknownBackend(t *testing.T) {
	_, err := NewStore("d0", Options{Backend: "carrier-pigeon"})
	if err == nil {
		t.Fatal("NewStore with an unknown backend kind must fail")
	}
	for _, want := range []string{"carrier-pigeon", "mem", "disk", "rpc"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q should mention %q", err, want)
		}
	}
	if _, err := NewStore("d0", Options{Backend: BackendDisk}); err == nil {
		t.Fatal("disk backend without DiskDir must fail")
	}
}

func TestDiskBackendCrashReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, Backend: BackendDisk, DiskDir: dir}
	s, err := NewStore("d0", opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if err := s.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(7, []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(200, []byte{byte('x' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Freeze() // syncs the logs — the durability point of a round boundary
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over the same directory: the logs replay into a fresh index.
	r1, err := NewStore("d0", opts)
	if err != nil {
		t.Fatalf("reopening disk store: %v", err)
	}
	if got := r1.Len(); got != 101 {
		t.Fatalf("Len after reopen = %d, want 101", got)
	}
	for k := uint64(0); k < 100; k++ {
		want := fmt.Sprintf("v%d", k)
		if k == 7 {
			want = "overwritten"
		}
		v, ok, err := r1.Get(k)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("key %d after reopen: %q %v %v, want %q", k, v, ok, err, want)
		}
	}
	if v, ok, _ := r1.Get(200); !ok || string(v) != "z" {
		t.Fatalf("thrice-written key after reopen: %q %v, want \"z\"", v, ok)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write: a torn record tail on one shard log must
	// be truncated away on reopen, keeping every complete record.
	logs, err := filepath.Glob(filepath.Join(dir, "shard-*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("globbing shard logs: %v (%d found)", err, len(logs))
	}
	torn := logs[0]
	f, err := os.OpenFile(torn, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A valid put header promising 1000 payload bytes, followed by only 3.
	if _, err := f.Write(diskRecord(diskOpPut, 0, make([]byte, 1000))[:diskHeader+3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r2, err := NewStore("d0", opts)
	if err != nil {
		t.Fatalf("reopening after torn tail: %v", err)
	}
	defer r2.Close()
	if got := r2.Len(); got != 101 {
		t.Fatalf("Len after torn-tail reopen = %d, want 101 (torn record dropped, rest kept)", got)
	}
	if v, ok, _ := r2.Get(7); !ok || string(v) != "overwritten" {
		t.Fatalf("key 7 after torn-tail reopen: %q %v", v, ok)
	}
}

func TestDiskBackendStatsTrackFootprint(t *testing.T) {
	s := storeForBackend(t, BackendDisk, Options{Shards: 4})
	payload := make([]byte, 4096)
	for k := uint64(0); k < 64; k++ {
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	bs := s.BackendStats()
	if bs.Kind != BackendDisk {
		t.Fatalf("Kind = %s, want disk", bs.Kind)
	}
	wantDisk := int64(64 * (diskHeader + 4096))
	if bs.DiskBytes != wantDisk {
		t.Fatalf("DiskBytes = %d, want %d", bs.DiskBytes, wantDisk)
	}
	// The index footprint must be far below the payload footprint — that is
	// what lets the disk backend run stores larger than RAM.
	if bs.ResidentBytes <= 0 || bs.ResidentBytes >= bs.DiskBytes/10 {
		t.Fatalf("ResidentBytes = %d, want small and positive (disk %d)", bs.ResidentBytes, bs.DiskBytes)
	}
}

func TestRPCBackendMeasuresWireCosts(t *testing.T) {
	s := storeForBackend(t, BackendRPC, Options{Shards: 4})
	for k := uint64(0); k < 16; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if _, _, _, err := s.BatchGet(keys); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(3); err != nil {
		t.Fatal(err)
	}
	bs := s.BackendStats()
	if bs.Kind != BackendRPC {
		t.Fatalf("Kind = %s, want rpc", bs.Kind)
	}
	if bs.WireWriteOps != 16 {
		t.Fatalf("WireWriteOps = %d, want 16", bs.WireWriteOps)
	}
	// The batch crossed the wire once per visited shard, the single get once
	// more: strictly fewer read ops than keys read.
	if bs.WireReadOps < 2 || bs.WireReadOps > 5 {
		t.Fatalf("WireReadOps = %d, want [2,5] (per-shard batch calls + one get)", bs.WireReadOps)
	}
	if bs.WireReadTime <= 0 || bs.WireWriteTime <= 0 {
		t.Fatalf("wire times not measured: read %v write %v", bs.WireReadTime, bs.WireWriteTime)
	}
	if bs.WireBytes <= 0 {
		t.Fatalf("WireBytes = %d, want > 0", bs.WireBytes)
	}
	m, ok := s.MeasuredCostModel()
	if !ok {
		t.Fatal("MeasuredCostModel should be derivable after wire traffic")
	}
	if m.LookupLatency <= 0 || m.WriteLatency <= 0 {
		t.Fatalf("measured model has zero latencies: %+v", m)
	}
	if !strings.HasPrefix(m.Name, "measured-") {
		t.Fatalf("measured model name = %q", m.Name)
	}
}

func TestMemStoreHasNoMeasuredModel(t *testing.T) {
	s := mustStore("d0", Options{Shards: 4})
	if err := s.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.MeasuredCostModel(); ok {
		t.Fatal("mem backend must not report a measured cost model")
	}
}

// BenchmarkLocalTo guards the memoized shard→machine map: classification of
// a read against an owner-affine placement must not call the placement
// policy's MachineFor per key.
func BenchmarkLocalTo(b *testing.B) {
	const keys = 1 << 16
	s := mustStore("d0", Options{Shards: 64, Placement: OwnerAffine(16, keys)})
	b.ReportAllocs()
	var local int
	for i := 0; i < b.N; i++ {
		if s.LocalTo(i%16, uint64(i%keys)) {
			local++
		}
	}
	_ = local
}

// TestBackendsAfterClose calls every ShardBackend method on a closed engine
// of each kind: none may panic.  The disk engine, which releases its tables
// at Close, answers reads, writes and Range with errDiskClosed,
// Freeze with nil (nothing is left to sync) and LenShard with 0.
func TestBackendsAfterClose(t *testing.T) {
	for _, kind := range backendCases() {
		t.Run(string(kind), func(t *testing.T) {
			b, err := newBackend(Options{Backend: kind, Shards: 2}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Put(1, 7, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			_, _, errGet := b.Get(1, 7)
			_, _, errBatchGet := b.BatchGet(1, []uint64{7, 9})
			errs := map[string]error{
				"Get":        errGet,
				"BatchGet":   errBatchGet,
				"Put":        b.Put(1, 8, []byte("y")),
				"BatchWrite": b.BatchWrite(1, []Pair{{Key: 8, Value: []byte("y")}}),
			}
			_, errs["Range"] = b.Range(1, func(uint64, []byte) bool { return true })
			if r, ok := b.(interface{ Reserve(keys int) }); ok {
				r.Reserve(64)
			}
			errFreeze := b.Freeze()
			n := b.LenShard(1)
			_ = b.Stats()
			if err := b.Close(); err != nil {
				t.Fatalf("a second Close: %v", err)
			}
			if kind != BackendDisk {
				return
			}
			for op, err := range errs {
				if !errors.Is(err, errDiskClosed) {
					t.Errorf("%s after Close: %v, want errDiskClosed", op, err)
				}
			}
			if errFreeze != nil || n != 0 {
				t.Errorf("after Close: Freeze returned %v and LenShard %d, want nil and 0", errFreeze, n)
			}
		})
	}
}
