package dht

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// Concurrency and lifetime properties of the mem engine and of the
// per-machine counter blocks.  Run them under -race: what they guard is that
// a lock-free read of a frozen shard never observes a mutation in progress.

// memTestValue is the value every test below stores under key: its length
// and bytes are a function of the key (and a version), so a reader can check
// what it got without a second copy.
func memTestValue(key uint64, version int) []byte {
	v := make([]byte, 9+key%23)
	binary.LittleEndian.PutUint64(v, key)
	for i := 8; i < len(v); i++ {
		v[i] = byte(version)
	}
	return v
}

// TestFrozenReadsDuringFailoverAndRebalance: readers loop Get and BatchGet
// on a frozen store while one goroutine cycles FailShard/RecoverShard and
// another rebalances the store between two placements.  Rebalance is
// quiesced against the readers (the runtime's runMu does the same) but runs
// concurrently with the failer, so copy-on-write republishes race with each
// other.  Every read must return the original bytes — or ErrUnavailable
// when the store has no replica — never a torn or missing value.
func TestFrozenReadsDuringFailoverAndRebalance(t *testing.T) {
	const keys, shards, machines = 4000, 8, 4
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for _, replicate := range []bool{true, false} {
		t.Run(fmt.Sprintf("replicate=%v", replicate), func(t *testing.T) {
			placements := []Placement{HashRandom(), OwnerAffine(machines, keys)}
			s := mustStore("d0", Options{Shards: shards, Replicate: replicate, Placement: placements[0]})
			for k := uint64(0); k < keys; k++ {
				if err := s.Put(k, memTestValue(k, 0)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Freeze(); err != nil {
				t.Fatal(err)
			}
			var quiesce sync.RWMutex // readers share it, Rebalance owns it
			var stop atomic.Bool
			var served, unavailable atomic.Int64
			check := func(k uint64, v []byte, ok bool) {
				if !ok || !bytes.Equal(v, memTestValue(k, 0)) {
					t.Errorf("key %d: read (%d bytes, ok=%v), want the original %d bytes", k, len(v), ok, 9+k%23)
				}
			}
			var readers, failer sync.WaitGroup
			for m := 0; m < machines; m++ {
				readers.Add(1)
				go func(m int) {
					defer readers.Done()
					view := s.View(m)
					batch := make([]uint64, 16)
					for i := uint64(m); !stop.Load() && !t.Failed(); i++ {
						quiesce.RLock()
						k := i * 0x9e3779b97f4a7c15 % keys
						v, ok, err := view.Get(k)
						switch {
						case err == nil:
							check(k, v, ok)
							served.Add(1)
						case !errors.Is(err, ErrUnavailable) || replicate:
							t.Errorf("Get(%d): %v", k, err)
						default:
							unavailable.Add(1)
						}
						for j := range batch {
							batch[j] = (k + uint64(j)*37) % keys
						}
						vals, oks, _, err := view.BatchGet(batch)
						switch {
						case err == nil:
							for j, bk := range batch {
								check(bk, vals[j], oks[j])
							}
							served.Add(1)
						case !errors.Is(err, ErrUnavailable) || replicate:
							t.Errorf("BatchGet: %v", err)
						default:
							unavailable.Add(1)
						}
						quiesce.RUnlock()
					}
				}(m)
			}
			failer.Add(1)
			go func() {
				defer failer.Done()
				for i := 0; !stop.Load(); i++ {
					s.FailShard(i % shards)
					if err := s.RecoverShard(i % shards); err != nil {
						t.Errorf("RecoverShard: %v", err)
						return
					}
				}
			}()
			for r := 1; r <= rounds && !t.Failed(); r++ {
				quiesce.Lock()
				st, err := s.Rebalance(placements[r%2])
				quiesce.Unlock()
				if err != nil {
					t.Fatalf("Rebalance %d: %v", r, err)
				}
				if st.KeysMoved == 0 {
					t.Fatalf("Rebalance %d moved nothing: the two placements should disagree", r)
				}
			}
			stop.Store(true)
			readers.Wait()
			failer.Wait()
			if served.Load() == 0 {
				t.Fatal("no read was served")
			}
			if s.Len() != keys {
				t.Fatalf("Len = %d after the migrations, want %d", s.Len(), keys)
			}
			t.Logf("served %d, unavailable %d", served.Load(), unavailable.Load())
		})
	}
}

// arenaCapacity sums the chunk capacities of a mem store's shards, and the
// bytes of the values they currently hold.
func arenaCapacity(t *testing.T, s *Store) (capacity, live []int64) {
	t.Helper()
	b, ok := s.backend.(*memBackend)
	if !ok {
		t.Fatalf("backend is %T, want the mem engine", s.backend)
	}
	for i := range b.shards {
		sh := &b.shards[i]
		var c, l int64
		for _, chunk := range sh.st.arena.chunks {
			c += int64(cap(chunk))
		}
		if c != sh.st.arena.capBytes {
			t.Fatalf("shard %d: capBytes %d, chunks hold %d", i, sh.st.arena.capBytes, c)
		}
		sh.st.each(func(_ uint64, v []byte) bool { l += int64(len(v)); return true })
		capacity, live = append(capacity, c), append(live, l)
	}
	return capacity, live
}

// TestValueSlicesOutliveOverwrites: a slice a reader obtained keeps its
// bytes through overwrites, deletes and arena compactions of its shard —
// per-machine caches hold such slices for a store's lifetime — while the
// arena's footprint stays bounded: a million overwrites of a thousand keys
// leave every shard holding at most twice its live bytes plus 1 MB.
func TestValueSlicesOutliveOverwrites(t *testing.T) {
	const keys, shards = 1000, 4
	overwrites := 1_000_000
	if testing.Short() {
		overwrites = 100_000
	}
	s := mustStore("d0", Options{Shards: shards, Replicate: true})
	type held struct {
		key     uint64
		version int
		v       []byte
	}
	var holds []held
	hold := func(k uint64, version int) {
		v, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", k, ok, err)
		}
		holds = append(holds, held{k, version, v})
	}
	versions := make([]int, keys)
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, memTestValue(k, 0)); err != nil {
			t.Fatal(err)
		}
		hold(k, 0)
	}
	for i := 0; i < overwrites; i++ {
		k := uint64(i) * 0x9e3779b97f4a7c15 % keys
		versions[k]++
		if err := s.Put(k, memTestValue(k, versions[k])); err != nil {
			t.Fatal(err)
		}
		if i%(overwrites/500) == 0 {
			hold(k, versions[k])
		}
	}
	// Deletes leave the held slices alone too (migration is the only caller).
	b := s.backend.(*memBackend)
	for k := uint64(0); k < keys; k += 7 {
		if err := b.BatchDelete(s.shardIndexFor(k), []uint64{k}); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range holds {
		if !bytes.Equal(h.v, memTestValue(h.key, h.version)) {
			t.Fatalf("the slice read for key %d at version %d changed under its holder", h.key, h.version)
		}
	}
	for k := uint64(1); k < keys; k += 7 {
		v, ok, err := s.Get(k)
		if err != nil || !ok || !bytes.Equal(v, memTestValue(k, versions[k])) {
			t.Fatalf("key %d after the overwrites: ok=%v err=%v, %d bytes", k, ok, err, len(v))
		}
	}
	capacity, live := arenaCapacity(t, s)
	for i := range capacity {
		if capacity[i] > 2*live[i]+compactSlack {
			t.Fatalf("shard %d: arena holds %d bytes for %d live ones (bound 2x + %d)", i, capacity[i], live[i], compactSlack)
		}
	}
	if testing.Short() {
		return
	}
	var written int64
	for k, n := range versions {
		written += int64(n+1) * int64(9+k%23)
	}
	var total int64
	for _, c := range capacity {
		total += c
	}
	if total*2 > written {
		t.Fatalf("arenas hold %d of the %d bytes ever written: compaction never ran", total, written)
	}
}

// TestStatsFoldAcrossMachines: four machines, two goroutines each, run 50k
// mixed single-key operations apiece through their machine's view; Stats,
// TotalBytes and WriteCount must equal the sums the goroutines kept, and
// MaxShardOps the true per-shard maximum — every counter block folded, none
// twice.
func TestStatsFoldAcrossMachines(t *testing.T) {
	const machines, workers, opsEach, keyspace, shards = 4, 8, 50_000, 1 << 12, 8
	s := mustStore("d0", Options{Shards: shards, Placement: OwnerAffine(machines, keyspace)})
	type tally struct {
		st       Stats
		shardOps [shards]int64
	}
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			machine := w % machines
			view, tl := s.View(machine), &tallies[w]
			// Each worker owns the keys congruent to w, so what it reads is
			// what it wrote.
			length := make(map[uint64]int)
			for i := 0; i < opsEach; i++ {
				k := uint64(i)*0x9e3779b97f4a7c15%(keyspace/workers)*workers + uint64(w)
				idx := s.shardIndexFor(k)
				local := s.LocalTo(machine, k)
				switch i % 5 {
				case 0, 1, 2:
					v := memTestValue(k, i)
					if err := view.Put(k, v); err != nil {
						t.Error(err)
						return
					}
					length[k] = len(v)
					tl.st.Writes++
					tl.st.BytesWritten += int64(len(v)) + 8
					if !local {
						tl.st.RemoteBytes += int64(len(v)) + 8
					}
				default:
					v, ok, err := view.Get(k)
					if err != nil {
						t.Error(err)
						return
					}
					n, written := length[k]
					if ok != written || len(v) != n {
						t.Errorf("Get(%d) = %d bytes, ok=%v; wrote %d, %v", k, len(v), ok, n, written)
						return
					}
					tl.st.Reads++
					if local {
						tl.st.LocalReads++
					} else {
						tl.st.RemoteReads++
					}
					if ok {
						tl.st.BytesRead += int64(n) + 8
						if !local {
							tl.st.RemoteBytes += int64(n) + 8
						}
					} else {
						tl.st.Misses++
					}
				}
				tl.st.ShardVisits++
				tl.shardOps[idx]++
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var want Stats
	var shardOps [shards]int64
	for i := range tallies {
		tl := &tallies[i]
		want.Reads += tl.st.Reads
		want.Writes += tl.st.Writes
		want.BytesRead += tl.st.BytesRead
		want.BytesWritten += tl.st.BytesWritten
		want.Misses += tl.st.Misses
		want.ShardVisits += tl.st.ShardVisits
		want.LocalReads += tl.st.LocalReads
		want.RemoteReads += tl.st.RemoteReads
		want.RemoteBytes += tl.st.RemoteBytes
		for idx, n := range tl.shardOps {
			shardOps[idx] += n
		}
	}
	for _, n := range shardOps {
		if n > want.MaxShardOps {
			want.MaxShardOps = n
		}
	}
	want.Keys = int64(s.Len())
	if got := s.Stats(); got != want {
		t.Fatalf("Stats folded over the machine blocks:\n got  %+v\n want %+v", got, want)
	}
	if want.LocalReads == 0 || want.RemoteReads == 0 || want.Misses == 0 {
		t.Fatalf("the op mix missed a class: %+v", want)
	}
	if got := s.TotalBytes(); got != want.BytesRead+want.BytesWritten {
		t.Fatalf("TotalBytes = %d, want %d", got, want.BytesRead+want.BytesWritten)
	}
	if got := s.WriteCount(); got != want.Writes {
		t.Fatalf("WriteCount = %d, want %d", got, want.Writes)
	}
	// One more anonymous write must reach WriteCount too: the runtime's
	// cache-coherence check compares it across rounds.
	if err := s.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := s.WriteCount(); got != want.Writes+1 {
		t.Fatalf("WriteCount after an anonymous write = %d, want %d", got, want.Writes+1)
	}
}

// TestCounterBlocksAreLinePadded pins the layout the per-machine accounting
// relies on: a block is a whole number of cache lines (and is allocated on
// its own), and so is a mem shard, whose mutex the writers of neighbouring
// shards would otherwise share a line with.
func TestCounterBlocksAreLinePadded(t *testing.T) {
	if n := unsafe.Sizeof(opCounters{}); n%64 != 0 {
		t.Fatalf("opCounters is %d bytes, not a multiple of a cache line", n)
	}
	if n := unsafe.Sizeof(memShard{}); n%64 != 0 {
		t.Fatalf("memShard is %d bytes, not a multiple of a cache line", n)
	}
	s := mustStore("d0", Options{Shards: 3})
	if s.countersFor(-1) != s.countersFor(-7) {
		t.Fatal("negative machines do not share the anonymous block")
	}
	if s.countersFor(0) == s.countersFor(1) || s.countersFor(5) != s.countersFor(5) {
		t.Fatal("counter blocks are not one per machine")
	}
	if c := s.countersFor(2); len(c.shardOps) != 3 || cap(c.shardOps)%8 != 0 {
		t.Fatalf("shardOps len %d cap %d, want 3 entries padded to whole lines", len(c.shardOps), cap(c.shardOps))
	}
}

// TestReserveSizesTablesOnce: a store told its item count allocates each
// shard's slot array once — filling it to the reservation never rehashes —
// and a reservation that a wrapper swallows, or that arrives after Freeze,
// is lost without an error.
func TestReserveSizesTablesOnce(t *testing.T) {
	const keys, shards = 40_000, 8
	s := mustStore("d0", Options{Shards: shards, Replicate: true})
	s.Reserve(keys)
	b := s.backend.(*memBackend)
	for i := range b.shards {
		if b.shards[i].st.prim.slots != nil {
			t.Fatal("Reserve allocated before the first write")
		}
	}
	if err := s.Put(0, []byte("first")); err != nil {
		t.Fatal(err)
	}
	first := &b.shards[s.shardIndexFor(0)].st
	primSlots, repSlots := &first.prim.slots[0], &first.rep.slots[0]
	for k := uint64(1); k < keys; k++ {
		if err := s.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if &first.prim.slots[0] != primSlots || &first.rep.slots[0] != repSlots {
		t.Fatal("a table filled to its reservation was re-allocated")
	}
	if got := first.prim.live; got < keys/shards*9/10 || got > len(first.prim.slots)*tableLoadNum/tableLoadDenom {
		t.Fatalf("shard holds %d keys in %d slots", got, len(first.prim.slots))
	}
	// Skew past the reservation still works: the table grows.
	small := mustStore("d1", Options{Shards: 2})
	small.Reserve(10)
	for k := uint64(0); k < 1000; k++ {
		if err := small.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if small.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", small.Len())
	}
	// Lost hints: behind the fault injector, on the disk engine, after Freeze.
	wrapped := mustStore("d2", Options{Shards: 2, Faults: &FaultPlan{Seed: 1, PTransient: 0.5}})
	wrapped.Reserve(1000)
	disk := mustStore("d3", Options{Shards: 2, Backend: BackendDisk, DiskDir: t.TempDir()})
	defer disk.Close()
	disk.Reserve(1000)
	s.Reserve(0)
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	s.Reserve(10 * keys)
	if v, ok, err := s.Get(0); err != nil || !ok || string(v) != "first" {
		t.Fatalf("Get(0) after the lost reservations: %q ok=%v err=%v", v, ok, err)
	}
	rpc, err := NewStore("d4", Options{Shards: 2, Backend: BackendRPC})
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	rpc.Reserve(1000)
	if got := rpc.backend.(*rpcBackend).engine.shards[0].st.prim.hint; got == 0 {
		t.Fatal("the rpc backend did not pass the reservation to its server engine")
	}
}
