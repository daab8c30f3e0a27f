package ampc

import (
	"fmt"
	"testing"

	"ampcgraph/internal/dht"
)

// fillStore writes n keys (key i -> [i]) through an unbatched runtime round.
func fillStore(t *testing.T, rt *Job, store *dht.Store, n int) {
	t.Helper()
	err := rt.Run(Round{
		Name:  "fill",
		Items: n,
		Body: func(ctx *Ctx, item int) error {
			return ctx.Write(store, uint64(item), []byte{byte(item)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadManyMatchesLookup(t *testing.T) {
	for _, cache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			rt := New(Config{Machines: 2, EnableCache: cache})
			store := newStore(t, rt, "d0")
			fillStore(t, rt, store, 100)
			err := rt.Run(Round{
				Name:  "read",
				Items: 1,
				Read:  store,
				Body: func(ctx *Ctx, item int) error {
					keys := []uint64{3, 7, 7, 250, 11}
					vals, oks, err := ctx.ReadMany(keys)
					if err != nil {
						return err
					}
					for i, k := range keys {
						v, ok, err := ctx.Lookup(k)
						if err != nil {
							return err
						}
						if ok != oks[i] || string(v) != string(vals[i]) {
							return fmt.Errorf("key %d: ReadMany %v,%v vs Lookup %v,%v", k, vals[i], oks[i], v, ok)
						}
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			st := rt.Stats()
			if st.BatchesIssued != 1 {
				t.Fatalf("BatchesIssued = %d, want 1", st.BatchesIssued)
			}
			// The cached path deduplicates the repeated key 7 before it
			// reaches the store; the uncached path sends keys verbatim.
			wantKeys := int64(5)
			if cache {
				wantKeys = 4
			}
			if st.BatchedKeys != wantKeys {
				t.Fatalf("BatchedKeys = %d, want %d", st.BatchedKeys, wantKeys)
			}
		})
	}
}

func TestWriteManyOverwrites(t *testing.T) {
	rt := New(Config{Machines: 2})
	store := newStore(t, rt, "d0")
	err := rt.Run(Round{
		Name:  "write",
		Items: 1,
		Body: func(ctx *Ctx, item int) error {
			if err := ctx.WriteMany(store, []dht.Pair{
				{Key: 1, Value: []byte("a")},
				{Key: 2, Value: []byte("b")},
			}); err != nil {
				return err
			}
			return ctx.WriteMany(store, []dht.Pair{
				{Key: 1, Value: []byte("x")},
				{Key: 3, Value: []byte("c")},
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]string{1: "x", 2: "b", 3: "c"}
	for k, w := range want {
		v, ok, err := store.Get(k)
		if err != nil || !ok || string(v) != w {
			t.Fatalf("key %d = %q,%v,%v, want %q", k, v, ok, err, w)
		}
	}
	st := rt.Stats()
	if st.BatchesIssued != 2 || st.BatchedKeys != 4 {
		t.Fatalf("batches=%d keys=%d, want 2/4", st.BatchesIssued, st.BatchedKeys)
	}
	if st.KVWrites != 4 {
		t.Fatalf("KVWrites = %d, want 4", st.KVWrites)
	}
}

func TestWriteManyFrozen(t *testing.T) {
	rt := New(Config{Machines: 1})
	store := newStore(t, rt, "d0")
	store.Freeze()
	err := rt.Run(Round{
		Name:  "write",
		Items: 1,
		Body: func(ctx *Ctx, item int) error {
			return ctx.WriteMany(store, []dht.Pair{{Key: 1, Value: []byte("a")}})
		},
	})
	if err == nil {
		t.Fatal("WriteMany into a frozen store succeeded")
	}
}

func TestWriteTableBatchedMatchesUnbatched(t *testing.T) {
	value := func(i int) []byte { return []byte{byte(i), byte(i >> 8)} }
	const n = 300
	single := New(Config{Machines: 3})
	s0 := newStore(t, single, "d0")
	if err := single.WriteTable("w", s0, n, 1, value); err != nil {
		t.Fatal(err)
	}
	batched := New(Config{Machines: 3, Batch: true, BatchSize: 64})
	s1 := newStore(t, batched, "d0")
	if err := batched.WriteTable("w", s1, n, 1, value); err != nil {
		t.Fatal(err)
	}
	if s0.Len() != n || s1.Len() != n {
		t.Fatalf("lens %d/%d, want %d", s0.Len(), s1.Len(), n)
	}
	for i := 0; i < n; i++ {
		v0, _, _ := s0.Get(uint64(i))
		v1, _, _ := s1.Get(uint64(i))
		if string(v0) != string(v1) {
			t.Fatalf("key %d differs: %v vs %v", i, v0, v1)
		}
	}
	// The batched table write must visit fewer shards than it writes keys.
	if st := batched.Stats(); st.ShardVisitsSaved == 0 {
		t.Fatalf("batched WriteTable saved no shard visits: %+v", st)
	}
}

func TestStreamDrivesIteratorsAcrossWindows(t *testing.T) {
	// Ten pull-based iterators, each suspending on three distinct keys in
	// sequence.  Every window size must resolve every unit to the same
	// result; the window only changes how the fetches group into batches.
	const units, hops = 10, 3
	for _, tc := range []struct {
		window      int
		wantBatches int64
	}{
		{0, hops},         // full window: one batch per lock-step cycle
		{1, units * hops}, // serial: one batch per suspension
		{4, 0 /* unchecked */},
	} {
		rt := New(Config{Machines: 1})
		store := newStore(t, rt, "d0")
		fillStore(t, rt, store, 64)
		sums := make([]int, units)
		err := rt.Run(Round{
			Name:  "stream",
			Items: 1,
			Read:  store,
			Body: func(ctx *Ctx, item int) error {
				got := make(map[uint64]byte)
				its := make([]Iterator, units)
				for u := 0; u < units; u++ {
					u := u
					hop := 0
					its[u] = PullFunc(func() (uint64, bool) {
						for hop < hops {
							key := uint64(u*hops + hop)
							v, ok := got[key]
							if !ok {
								return key, true
							}
							sums[u] += int(v)
							hop++
						}
						return 0, false
					})
				}
				return ctx.Stream(tc.window, its, func(key uint64, raw []byte, ok bool) error {
					if !ok {
						return fmt.Errorf("key %d missing", key)
					}
					got[key] = raw[0]
					return nil
				})
			},
		})
		if err != nil {
			t.Fatalf("window %d: %v", tc.window, err)
		}
		for u, sum := range sums {
			if want := 3*(u*hops) + 3; sum != want {
				t.Fatalf("window %d: unit %d resolved to %d, want %d", tc.window, u, sum, want)
			}
		}
		if st := rt.Stats(); tc.wantBatches != 0 && st.BatchesIssued != tc.wantBatches {
			t.Fatalf("window %d: %d batches, want %d", tc.window, st.BatchesIssued, tc.wantBatches)
		}
		rt.Close()
	}
}

func TestNumBlocksAndBounds(t *testing.T) {
	if got := NumBlocks(0, 10); got != 0 {
		t.Fatalf("NumBlocks(0,10) = %d", got)
	}
	if got := NumBlocks(25, 10); got != 3 {
		t.Fatalf("NumBlocks(25,10) = %d", got)
	}
	covered := 0
	for b := 0; b < NumBlocks(25, 10); b++ {
		lo, hi := BlockBounds(b, 10, 25)
		if lo < 0 || hi > 25 || lo >= hi {
			t.Fatalf("block %d bounds [%d,%d)", b, lo, hi)
		}
		covered += hi - lo
	}
	if covered != 25 {
		t.Fatalf("blocks cover %d items, want 25", covered)
	}
}
