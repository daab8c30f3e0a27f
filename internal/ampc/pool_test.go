package ampc

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ampcgraph/internal/dht"
	"ampcgraph/internal/simtime"
)

func TestPartitionerRoutesItems(t *testing.T) {
	r := New(Config{Machines: 4, Threads: 2})
	defer r.Close()
	var wrong atomic.Int64
	seen := make([]atomic.Int64, 40)
	err := r.Run(Round{
		Name:        "routed",
		Items:       40,
		Partitioner: func(item int) int { return item / 10 }, // contiguous ranges
		Body: func(ctx *Ctx, item int) error {
			if ctx.Machine != item/10 {
				wrong.Add(1)
			}
			seen[item].Add(1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d items ran on the wrong machine", wrong.Load())
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("item %d processed %d times", i, seen[i].Load())
		}
	}
}

func TestPartitionerOutOfRangeClamps(t *testing.T) {
	r := New(Config{Machines: 3})
	defer r.Close()
	var count atomic.Int64
	err := r.Run(Round{
		Name:        "clamped",
		Items:       9,
		Partitioner: func(item int) int { return item - 100 }, // wildly out of range
		Body: func(ctx *Ctx, item int) error {
			count.Add(1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 9 {
		t.Fatalf("processed %d items, want 9", count.Load())
	}
}

func TestPoolPersistsAcrossRounds(t *testing.T) {
	// The worker pool is spawned once: goroutine count must not grow with
	// the number of rounds.
	r := New(Config{Machines: 4, Threads: 2})
	defer r.Close()
	run := func() {
		err := r.Run(Round{Name: "tick", Items: 64, Body: func(ctx *Ctx, item int) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // spawns the pool
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		run()
	}
	after := runtime.NumGoroutine()
	if after > before+4 {
		t.Fatalf("goroutines grew from %d to %d over 50 rounds; pool is not persistent", before, after)
	}
	if got := r.Stats().Rounds; got != 51 {
		t.Fatalf("rounds %d", got)
	}
}

func TestCloseStopsPoolAndRejectsRounds(t *testing.T) {
	r := New(Config{Machines: 2, Threads: 2})
	if err := r.Run(Round{Name: "once", Items: 4, Body: func(ctx *Ctx, item int) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	err := r.Run(Round{Name: "late", Items: 4, Body: func(ctx *Ctx, item int) error { return nil }})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: %v, want ErrClosed", err)
	}
	// Stats stay readable.
	if r.Stats().Rounds != 1 {
		t.Fatalf("stats after close: %+v", r.Stats())
	}
	// Closing a runtime that never ran a round is fine too.
	New(Config{}).Close()
}

func TestCachePersistsAcrossRounds(t *testing.T) {
	// Reading the same (frozen) store in a second round must hit the
	// persistent per-machine caches instead of re-fetching.
	r := New(Config{Machines: 2, EnableCache: true})
	defer r.Close()
	d0 := newStore(t, r, "d0")
	for i := 0; i < 100; i++ {
		if err := d0.Put(uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	body := func(ctx *Ctx, item int) error {
		_, ok, err := ctx.Lookup(uint64(item))
		if err != nil || !ok {
			return fmt.Errorf("lookup %d: %v %v", item, ok, err)
		}
		return nil
	}
	if err := r.Run(Round{Name: "first", Items: 100, Read: d0, Body: body}); err != nil {
		t.Fatal(err)
	}
	readsAfterFirst := r.Stats().KVReads
	if err := r.Run(Round{Name: "second", Items: 100, Read: d0, Body: body}); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.KVReads != readsAfterFirst {
		t.Fatalf("second round re-read the store: %d -> %d reads", readsAfterFirst, st.KVReads)
	}
	if st.CacheHits < 100 {
		t.Fatalf("cache hits %d, want >= 100 (the whole second round)", st.CacheHits)
	}
}

func TestOwnerPlacementKeepsOwnedTrafficLocal(t *testing.T) {
	const n = 200
	r := New(Config{Machines: 4, Placement: PlacementOwnerAffine})
	defer r.Close()
	r.SetKeyspace(n)
	store := newStore(t, r, "d0")
	// Every machine writes its own keys: all writes local.
	err := r.WriteTable("write", store, n, 0, func(i int) []byte { return []byte{byte(i)} })
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.KVRemoteBytes != 0 {
		t.Fatalf("owner-partitioned writes moved %d remote bytes", st.KVRemoteBytes)
	}
	// Every machine reads its own keys: all reads local.
	err = r.Run(Round{
		Name:        "read-own",
		Items:       n,
		Read:        store,
		Partitioner: r.OwnerPartitioner(n),
		Body: func(ctx *Ctx, item int) error {
			_, ok, err := ctx.Lookup(uint64(item))
			if err != nil || !ok {
				return fmt.Errorf("lookup %d: %v %v", item, ok, err)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.RemoteReads != 0 || st.LocalReads != n {
		t.Fatalf("local/remote reads = %d/%d, want %d/0", st.LocalReads, st.RemoteReads, n)
	}
	if st.RemoteFrac != 0 {
		t.Fatalf("remote fraction %v, want 0", st.RemoteFrac)
	}
}

func TestHashPlacementStaysFullyRemote(t *testing.T) {
	const n = 100
	r := New(Config{Machines: 4}) // default placement
	defer r.Close()
	r.SetKeyspace(n)
	store := newStore(t, r, "d0")
	if err := r.WriteTable("write", store, n, 0, func(i int) []byte { return []byte{1} }); err != nil {
		t.Fatal(err)
	}
	err := r.Run(Round{
		Name:  "read",
		Items: n,
		Read:  store,
		Body: func(ctx *Ctx, item int) error {
			_, _, err := ctx.Lookup(uint64(item))
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.LocalReads != 0 || st.RemoteReads != n {
		t.Fatalf("hash placement classified reads local: %d/%d", st.LocalReads, st.RemoteReads)
	}
	if st.RemoteFrac != 1 {
		t.Fatalf("remote fraction %v, want 1", st.RemoteFrac)
	}
	if st.KVRemoteBytes != st.KVBytesTotal {
		t.Fatalf("under hash placement all bytes are remote: %d != %d", st.KVRemoteBytes, st.KVBytesTotal)
	}
}

func TestOwnerPlacementReducesModeledTime(t *testing.T) {
	// The same owner-partitioned workload must be modeled faster when the
	// shards are co-located than when they are hash-placed.
	run := func(placement string) int64 {
		const n = 2000
		r := New(Config{Machines: 4, Placement: placement})
		defer r.Close()
		r.SetKeyspace(n)
		store := newStore(t, r, "d0")
		if err := r.WriteTable("write", store, n, 0, func(i int) []byte { return []byte{1} }); err != nil {
			t.Fatal(err)
		}
		err := r.Run(Round{
			Name:        "read-own",
			Items:       n,
			Read:        store,
			Partitioner: r.OwnerPartitioner(n),
			Body: func(ctx *Ctx, item int) error {
				_, _, err := ctx.Lookup(uint64(item))
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(r.Stats().Sim)
	}
	if owner, hash := run(PlacementOwnerAffine), run(PlacementHash); owner >= hash {
		t.Fatalf("owner placement modeled %d ns, hash %d ns; want owner < hash", owner, hash)
	}
}

// TestLocalReadsChargeLocalLatency: the store keeps no clock — ampc counts
// every operation as the machine issues it and the model prices the counts.
// One Ctx.Lookup of a co-located key puts exactly Model.LocalShardLatency on
// that machine's busy time, a remote one Model.LookupLatency, and one
// Ctx.Write the write latency of the side its shard is on.  Cache hits,
// batches with hits and misses, batch writes and writes buffered under a
// fault budget are pinned the same way, each against its hand-priced value.
func TestLocalReadsChargeLocalLatency(t *testing.T) {
	const machines, keys, key = 4, 100, 3
	model := simtime.RDMA()
	// busy runs body once on machine, under the harness configuration as
	// tweak leaves it, and returns what that cost it.
	busy := func(machine int, body func(ctx *Ctx, in, out *dht.Store) error, tweak ...func(*Config)) time.Duration {
		cfg := Config{Machines: machines, Threads: 1, Placement: PlacementOwnerAffine, Model: model}
		for _, f := range tweak {
			f(&cfg)
		}
		r := New(cfg)
		defer r.Close()
		r.SetKeyspace(keys)
		in, out := newStore(t, r, "in"), newStore(t, r, "out")
		if err := in.Put(key, []byte("x")); err != nil {
			t.Fatal(err)
		}
		err := r.Run(Round{
			Name:        "one-op",
			Items:       1,
			Read:        in,
			Partitioner: func(int) int { return machine },
			Body:        func(ctx *Ctx, _ int) error { return body(ctx, in, out) },
		})
		if err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		for m, d := range st.MachineBusy {
			if m != machine && d != 0 {
				t.Fatalf("machine %d ran the op, machine %d was charged %v", machine, m, d)
			}
		}
		return st.MachineBusy[machine]
	}
	cached := func(c *Config) { c.EnableCache = true }
	buffered := func(c *Config) { c.FaultBudget = 1 }
	lookup := func(ctx *Ctx, _, _ *dht.Store) error {
		_, _, err := ctx.Lookup(key)
		return err
	}
	write := func(ctx *Ctx, _, out *dht.Store) error { return ctx.Write(out, key, []byte("y")) }

	owner := dht.RangeOwner(key, machines, keys)
	other := (owner + 1) % machines
	far := uint64(((owner+2)%machines)*keys/machines + 1) // a key neither machine owns
	// readMany warms the cache with key, then reads key (a hit) beside far
	// twice (one deduplicated miss: one batch of one key on a remote shard).
	readMany := func(ctx *Ctx, in, out *dht.Store) error {
		if err := lookup(ctx, in, out); err != nil {
			return err
		}
		_, _, err := ctx.ReadMany([]uint64{key, far, far})
		return err
	}
	// writeMany writes key and far in one batch: one local and one remote
	// shard visit carrying two keys.
	writeMany := func(ctx *Ctx, _, out *dht.Store) error {
		return ctx.WriteMany(out, []dht.Pair{{Key: key, Value: []byte("y")}, {Key: far, Value: []byte("z")}})
	}
	both := func(ctx *Ctx, in, out *dht.Store) error {
		if err := write(ctx, in, out); err != nil {
			return err
		}
		return writeMany(ctx, in, out)
	}
	hit := simtime.DRAM().LookupLatency
	batchWrite := model.BatchLocalShardLatency + model.BatchShardLatency + 2*model.BatchPerKey
	for _, c := range []struct {
		name    string
		machine int
		body    func(ctx *Ctx, in, out *dht.Store) error
		tweak   []func(*Config)
		want    time.Duration
	}{
		{"local read", owner, lookup, nil, model.LocalShardLatency},
		{"remote read", other, lookup, nil, model.LookupLatency},
		{"local write", owner, write, nil, model.LocalShardLatency},
		{"remote write", other, write, nil, model.WriteLatency},
		{"cache hit", owner, func(ctx *Ctx, in, out *dht.Store) error {
			if err := lookup(ctx, in, out); err != nil {
				return err
			}
			return lookup(ctx, in, out)
		}, []func(*Config){cached}, model.LocalShardLatency + hit},
		{"ReadMany hits and misses", owner, readMany, []func(*Config){cached},
			model.LocalShardLatency + hit + model.BatchShardLatency + model.BatchPerKey},
		{"WriteMany", owner, writeMany, nil, batchWrite},
		{"buffered Write and WriteMany", owner, both, []func(*Config){buffered}, model.LocalShardLatency + batchWrite},
	} {
		if got := busy(c.machine, c.body, c.tweak...); got != c.want {
			t.Fatalf("%s charged %v, want %v", c.name, got, c.want)
		}
	}
	if model.LocalShardLatency >= model.LookupLatency {
		t.Fatal("co-located reads must be cheaper than remote reads under RDMA")
	}
}

func TestBatchedOwnerPlacementSplitsVisits(t *testing.T) {
	// ReadMany under owner placement: a machine fetching its own block pays
	// local visits; fetching another machine's keys pays remote.
	const n = 400
	r := New(Config{Machines: 4, Batch: true, Placement: PlacementOwnerAffine})
	defer r.Close()
	r.SetKeyspace(n)
	store := newStore(t, r, "d0")
	if err := r.WriteTable("write", store, n, 0, func(i int) []byte { return []byte{byte(i)} }); err != nil {
		t.Fatal(err)
	}
	size := 100 // one block per machine-range
	err := r.Run(Round{
		Name:        "read-blocks",
		Items:       NumBlocks(n, size),
		Read:        store,
		Partitioner: r.BlockOwnerPartitioner(size, n),
		Body: func(ctx *Ctx, block int) error {
			lo, hi := BlockBounds(block, size, n)
			keys := make([]uint64, 0, hi-lo)
			for i := lo; i < hi; i++ {
				keys = append(keys, uint64(i))
			}
			_, _, err := ctx.ReadMany(keys)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.RemoteReads != 0 || st.LocalReads != n {
		t.Fatalf("block-owned batched reads: local/remote = %d/%d, want %d/0", st.LocalReads, st.RemoteReads, n)
	}

	// The same store read by the wrong machines is fully remote.
	err = r.Run(Round{
		Name:        "read-blocks-rotated",
		Items:       NumBlocks(n, size),
		Read:        store,
		Partitioner: func(block int) int { return (r.BlockOwnerPartitioner(size, n)(block) + 1) % 4 },
		Body: func(ctx *Ctx, block int) error {
			lo, hi := BlockBounds(block, size, n)
			keys := make([]uint64, 0, hi-lo)
			for i := lo; i < hi; i++ {
				keys = append(keys, uint64(i))
			}
			_, _, err := ctx.ReadMany(keys)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.RemoteReads != n {
		t.Fatalf("rotated batched reads stayed local: remote = %d, want %d", st.RemoteReads, n)
	}
}
