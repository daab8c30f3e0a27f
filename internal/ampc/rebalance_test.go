package ampc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ampcgraph/internal/dht"
)

// rebalanceTestJob builds a weighted-placement runtime with a populated
// store and an observed, skewed query load: round "write" stores a
// recognizable value per key, round "read" looks every key up partitioned by
// ownership, so the per-machine query counters mirror the (skewed) key
// counts of the weighted table.
func rebalanceTestJob(t *testing.T, n int, cfg Config) (*Job, *dht.Store) {
	t.Helper()
	r := New(cfg)
	r.SetOwnership(skewedWeights(n))
	store := newStore(t, r, "data")
	write := Round{
		Name:  "write",
		Items: n,
		Writes: []Access{
			{Store: store},
		},
		Partitioner: r.OwnerPartitioner(n),
		Body: func(ctx *Ctx, item int) error {
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], uint64(item)*3+1)
			return ctx.Write(store, uint64(item), v[:])
		},
	}
	read := Round{
		Name:        "read",
		Items:       n,
		Read:        store,
		Partitioner: r.OwnerPartitioner(n),
		Body: func(ctx *Ctx, item int) error {
			v, ok, err := ctx.Lookup(uint64(item))
			if err != nil || !ok {
				return fmt.Errorf("key %d: ok=%v err=%v", item, ok, err)
			}
			if got := binary.LittleEndian.Uint64(v); got != uint64(item)*3+1 {
				return fmt.Errorf("key %d: value %d", item, got)
			}
			return nil
		},
	}
	if err := r.Run(write); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(read); err != nil {
		t.Fatal(err)
	}
	return r, store
}

// TestRebalanceMigratesAndPreservesReads is the cache-coherence regression
// for shard migration: after a rebalance that moved shard data, every key
// must still read back with its pre-migration value — through the
// per-machine caches, whose migrated spans were invalidated — and the
// partitioners must agree with the stores' placement on the new table.  A
// copy-without-delete or delete-without-copy bug, or a stale cache entry
// surviving the migration, fails the verification round.
func TestRebalanceMigratesAndPreservesReads(t *testing.T) {
	const n = 400
	cfg := Config{Machines: 4, Threads: 2, Placement: PlacementWeighted, EnableCache: true, Seed: 1}
	r, store := rebalanceTestJob(t, n, cfg)
	defer r.Close()

	reb, err := r.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if !reb.Moved || reb.MigratedKeys == 0 {
		t.Fatalf("rebalance moved nothing (moved=%v keys=%d); the skewed load should shift the boundaries",
			reb.Moved, reb.MigratedKeys)
	}
	if reb.Changed.Empty() {
		t.Fatal("rebalance moved data but reports no changed spans")
	}
	st := r.Stats()
	if st.Rebalances != 1 || st.MigratedKeys != reb.MigratedKeys || st.MigrationSim != reb.Cost {
		t.Fatalf("stats %+v do not reflect the rebalance %+v", st, reb)
	}
	if st.MigrationSim <= 0 {
		t.Fatal("migration charged no simulated time")
	}

	// A second rebalance immediately after the first is a no-op: the
	// observation window was reset, so there is no load to derive from.
	reb2, err := r.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if reb2.Moved {
		t.Fatal("rebalance with no observed load still moved data")
	}

	// Partitioners built after the rebalance and the store's placement must
	// answer "who owns key k" from the same (new) table.
	part := r.OwnerPartitioner(n)
	shards := store.NumShards()
	for k := 0; k < n; k++ {
		shard := store.Placement().ShardFor(uint64(k), shards)
		if m := store.Placement().MachineFor(shard, shards); m != part(k) {
			t.Fatalf("key %d: shard co-located with machine %d, partitioner assigns %d", k, m, part(k))
		}
	}

	// Every key reads back with its pre-migration value, through the caches.
	verify := Round{
		Name:        "verify",
		Items:       n,
		Read:        store,
		Partitioner: part,
		Body: func(ctx *Ctx, item int) error {
			v, ok, err := ctx.Lookup(uint64(item))
			if err != nil || !ok {
				return fmt.Errorf("key %d lost in migration: ok=%v err=%v", item, ok, err)
			}
			if got := binary.LittleEndian.Uint64(v); got != uint64(item)*3+1 {
				return fmt.Errorf("key %d: post-migration value %d, want %d", item, got, uint64(item)*3+1)
			}
			return nil
		},
	}
	if err := r.Run(verify); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceNoOpOutsideWeightedPlacement pins the documented no-op: under
// hash and owner-affine placement there is no ownership table to adapt, so
// Rebalance returns zero stats and no error.
func TestRebalanceNoOpOutsideWeightedPlacement(t *testing.T) {
	const n = 200
	for _, placement := range []string{PlacementHash, PlacementOwnerAffine} {
		cfg := Config{Machines: 4, Threads: 2, Placement: placement, EnableCache: true, Seed: 1}
		r, _ := rebalanceTestJob(t, n, cfg)
		reb, err := r.Rebalance()
		if err != nil {
			t.Fatalf("%s: %v", placement, err)
		}
		if reb.Moved || reb.MigratedKeys != 0 {
			t.Fatalf("%s: rebalance moved data without an ownership table: %+v", placement, reb)
		}
		r.Close()
	}
}

// TestRebalanceConcurrentWithRounds races Rebalance against in-flight
// pipelined rounds: the run lock serializes them, so every interleaving must
// leave the store coherent — each round that runs after a migration reads
// post-migration data, and no round overlaps the shard moves.  Run with
// -race (make race) this also proves the placement swap is never read
// mid-write.
func TestRebalanceConcurrentWithRounds(t *testing.T) {
	const n = 300
	cfg := Config{Machines: 4, Threads: 2, Placement: PlacementWeighted, EnableCache: true, Pipeline: true, Seed: 1}
	r, store := rebalanceTestJob(t, n, cfg)
	defer r.Close()

	read := Round{
		Name:        "read-again",
		Items:       n,
		Read:        store,
		Partitioner: r.OwnerPartitioner(n),
		Body: func(ctx *Ctx, item int) error {
			v, ok, err := ctx.Lookup(uint64(item))
			if err != nil || !ok {
				return fmt.Errorf("key %d: ok=%v err=%v", item, ok, err)
			}
			if got := binary.LittleEndian.Uint64(v); got != uint64(item)*3+1 {
				return fmt.Errorf("key %d: value %d", item, got)
			}
			return nil
		},
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := r.Rebalance(); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := r.RunPipeline([]Round{read}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCloseDuringRebalance races Close against Rebalance: whichever wins the
// lifecycle lock, the other must either complete cleanly or report the
// runtime closed — never deadlock, panic, or touch a closed backend.
func TestCloseDuringRebalance(t *testing.T) {
	const n = 300
	for i := 0; i < 5; i++ {
		cfg := Config{Machines: 4, Threads: 2, Placement: PlacementWeighted, EnableCache: true, Seed: 1}
		r, _ := rebalanceTestJob(t, n, cfg)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := r.Rebalance(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("rebalance during close: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			r.Close()
		}()
		wg.Wait()
		r.Close()
	}
}
