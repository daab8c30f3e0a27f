package ampc

import (
	"errors"
	"fmt"
	"testing"

	"ampcgraph/internal/codec"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/simtime"
)

// newStore opens a store of rt's job, failing the test when the backend cannot
// be constructed.
func newStore(t testing.TB, rt *Job, name string) *dht.Store {
	t.Helper()
	st, err := rt.OpenStore(name)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Machines != 4 || c.Threads != 1 || c.Epsilon != 0.5 {
		t.Fatalf("defaults %+v", c)
	}
	if c.Model.Name != "rdma" {
		t.Fatalf("default model %q", c.Model.Name)
	}
	if c.Shards != 16 {
		t.Fatalf("default shards %d", c.Shards)
	}
	// Explicit values are preserved.
	c2 := Config{Machines: 7, Threads: 3, Epsilon: 0.25, Model: simtime.TCP()}.WithDefaults()
	if c2.Machines != 7 || c2.Threads != 3 || c2.Epsilon != 0.25 || c2.Model.Name != "tcp" {
		t.Fatalf("explicit config clobbered: %+v", c2)
	}
}

func TestSpaceBudget(t *testing.T) {
	c := Config{Epsilon: 0.5}.WithDefaults()
	if got := c.SpaceBudget(10_000); got != 100 {
		t.Fatalf("budget(1e4) = %d, want 100", got)
	}
	if got := c.SpaceBudget(4); got != 16 {
		t.Fatalf("tiny inputs should get the floor budget, got %d", got)
	}
	if got := c.SpaceBudget(0); got != 16 {
		t.Fatalf("budget(0) = %d", got)
	}
	c.SpacePerMachine = 777
	if got := c.SpaceBudget(10_000); got != 777 {
		t.Fatalf("override ignored, got %d", got)
	}
}

func TestRoundDistributesAllItems(t *testing.T) {
	r := New(Config{Machines: 3, Threads: 2})
	seen := make([]int32, 100)
	err := r.Run(Round{
		Name:  "count",
		Items: 100,
		Body: func(ctx *Ctx, item int) error {
			if item%3 != ctx.Machine {
				return fmt.Errorf("item %d on machine %d", item, ctx.Machine)
			}
			seen[item]++
			ctx.ChargeCompute(1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d processed %d times", i, c)
		}
	}
	st := r.Stats()
	if st.Rounds != 1 {
		t.Fatalf("rounds %d", st.Rounds)
	}
}

func TestRoundReadWriteStores(t *testing.T) {
	r := New(Config{Machines: 4})
	d0 := newStore(t, r, "d0")
	for i := 0; i < 50; i++ {
		if err := d0.Put(uint64(i), codec.EncodeUint64(uint64(i*i))); err != nil {
			t.Fatal(err)
		}
	}
	d1 := newStore(t, r, "d1")
	err := r.Run(Round{
		Name:  "square",
		Items: 50,
		Read:  d0,
		Body: func(ctx *Ctx, item int) error {
			v, ok, err := ctx.Lookup(uint64(item))
			if err != nil || !ok {
				return fmt.Errorf("lookup %d: %v %v", item, ok, err)
			}
			return ctx.Write(d1, uint64(item), v)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d0.Frozen() {
		t.Fatal("input store should be frozen by the round")
	}
	if d1.Len() != 50 {
		t.Fatalf("output store has %d keys", d1.Len())
	}
	st := r.Stats()
	if st.KVReads < 50 || st.KVWrites < 100 {
		t.Fatalf("kv stats %+v", st)
	}
	if st.MaxMachineQueries <= 0 || st.MaxMachineQueries > 50 {
		t.Fatalf("max machine queries %d", st.MaxMachineQueries)
	}
	if st.KVBytesTotal != st.KVBytesRead+st.KVBytesWritten {
		t.Fatal("KVBytesTotal inconsistent")
	}
}

func TestRoundErrorPropagates(t *testing.T) {
	r := New(Config{Machines: 2})
	boom := errors.New("boom")
	err := r.Run(Round{
		Name:  "fail",
		Items: 10,
		Body: func(ctx *Ctx, item int) error {
			if item == 7 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestLookupWithoutReadStoreFails(t *testing.T) {
	r := New(Config{Machines: 1})
	err := r.Run(Round{
		Name:  "noread",
		Items: 1,
		Body: func(ctx *Ctx, item int) error {
			_, _, err := ctx.Lookup(0)
			return err
		},
	})
	if err == nil {
		t.Fatal("lookup without an input store should fail")
	}
}

func TestCachingReducesStoreReads(t *testing.T) {
	run := func(cache bool) (storeReads int64, hits int64) {
		r := New(Config{Machines: 2, EnableCache: cache})
		d0 := newStore(t, r, "d0")
		d0.Put(1, []byte("x"))
		err := r.Run(Round{
			Name:  "hammer",
			Items: 200,
			Read:  d0,
			Body: func(ctx *Ctx, item int) error {
				_, ok, err := ctx.Lookup(1)
				if err != nil || !ok {
					return fmt.Errorf("lookup failed")
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		return st.KVReads, st.CacheHits
	}
	uncachedReads, _ := run(false)
	cachedReads, hits := run(true)
	if uncachedReads != 200 {
		t.Fatalf("uncached reads %d, want 200", uncachedReads)
	}
	if cachedReads >= uncachedReads/10 {
		t.Fatalf("caching barely reduced store reads: %d vs %d", cachedReads, uncachedReads)
	}
	if hits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestMultithreadingReducesSimTime(t *testing.T) {
	run := func(threads int) (sim int64) {
		r := New(Config{Machines: 2, Threads: threads})
		d0 := newStore(t, r, "d0")
		for i := 0; i < 100; i++ {
			d0.Put(uint64(i), []byte("x"))
		}
		err := r.Run(Round{
			Name:  "lookups",
			Items: 100,
			Read:  d0,
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
	if run(8) >= run(1) {
		t.Fatal("multithreading should reduce simulated time for lookup-bound rounds")
	}
}

func TestRecordShuffleAndPhases(t *testing.T) {
	r := New(Config{})
	err := r.Phase("build", func() error {
		r.RecordShuffle("direct-graph", 1000)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = r.Phase("search", func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Shuffles != 1 || st.ShuffleBytes != 1000 {
		t.Fatalf("shuffle stats %+v", st)
	}
	if len(st.Phases) != 2 {
		t.Fatalf("phases %v", st.Phases)
	}
	if st.Phases[0].Name != "build" || st.Phases[0].Shuffles != 1 || st.Phases[0].ShuffleBytes != 1000 {
		t.Fatalf("phase[0] %+v", st.Phases[0])
	}
	if st.Phases[1].Shuffles != 0 {
		t.Fatalf("phase[1] %+v", st.Phases[1])
	}
	if st.Sim <= 0 {
		t.Fatal("shuffle should charge simulated time")
	}
}

func TestPhaseErrorPropagates(t *testing.T) {
	r := New(Config{})
	boom := errors.New("phase boom")
	if err := r.Phase("x", func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	// Phase is still recorded even on error.
	if len(r.Stats().Phases) != 1 {
		t.Fatal("failed phase not recorded")
	}
}

func TestNestedPhasesAttributeToInnermost(t *testing.T) {
	r := New(Config{})
	_ = r.Phase("outer", func() error {
		return r.Phase("inner", func() error {
			r.RecordShuffle("s", 10)
			return nil
		})
	})
	st := r.Stats()
	var inner, outer PhaseStat
	for _, ph := range st.Phases {
		switch ph.Name {
		case "inner":
			inner = ph
		case "outer":
			outer = ph
		}
	}
	if inner.Shuffles != 1 || outer.Shuffles != 0 {
		t.Fatalf("inner=%+v outer=%+v", inner, outer)
	}
}

func TestMoreMachinesReduceSimTime(t *testing.T) {
	// The Figure 8 self-speedup experiment relies on the simulated round time
	// shrinking as machines are added.
	run := func(machines int) int64 {
		r := New(Config{Machines: machines})
		d0 := newStore(t, r, "d0")
		for i := 0; i < 2000; i++ {
			d0.Put(uint64(i), []byte("x"))
		}
		err := r.Run(Round{
			Name:  "work",
			Items: 2000,
			Read:  d0,
			Body: func(ctx *Ctx, item int) error {
				ctx.ChargeCompute(10)
				_, _, err := ctx.Lookup(uint64(item))
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(r.Stats().Sim)
	}
	if run(16) >= run(1) {
		t.Fatal("sim time should decrease with more machines")
	}
}
