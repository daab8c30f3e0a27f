package ampc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ampcgraph/internal/dht"
)

// Sub-round recovery tests: a failed (round, machine) share is re-executed
// against the stores a fault-free run would see, nothing the failed attempt
// wrote is visible, and the budget bounds how many re-executions a run absorbs.

func TestSubroundRecoveryBarrier(t *testing.T) {
	writers := map[string]func(ctx *Ctx, out *dht.Store, key uint64, value []byte) error{
		"Write": func(ctx *Ctx, out *dht.Store, key uint64, value []byte) error {
			return ctx.Write(out, key, value)
		},
		"WriteMany": func(ctx *Ctx, out *dht.Store, key uint64, value []byte) error {
			return ctx.WriteMany(out, []dht.Pair{{Key: key, Value: value}})
		},
	}
	for name, write := range writers {
		t.Run(name, func(t *testing.T) {
			r := New(Config{Machines: 4, Threads: 2, FaultBudget: 4})
			defer r.Close()
			out := newStore(t, r, "out")
			const ghost = 1000 // written by the failing attempt only
			var tripped atomic.Bool
			err := r.Run(Round{
				Name:  "flaky",
				Items: 64,
				Body: func(ctx *Ctx, item int) error {
					if item == 13 && tripped.CompareAndSwap(false, true) {
						if err := write(ctx, out, ghost, []byte("ghost")); err != nil {
							return err
						}
						return errors.New("injected")
					}
					return write(ctx, out, uint64(item), []byte("x"))
				},
			})
			if err != nil {
				t.Fatalf("run should recover: %v", err)
			}
			if got := r.Stats().SubroundRetries; got != 1 {
				t.Fatalf("SubroundRetries = %d, want 1", got)
			}
			if _, ok, err := out.Get(ghost); ok || err != nil {
				t.Fatalf("key %d, written only by the failed attempt, is visible after the retry (ok=%v err=%v)", ghost, ok, err)
			}
			if out.Len() != 64 {
				t.Fatalf("out has %d keys, want 64", out.Len())
			}
			for i := 0; i < 64; i++ {
				v, ok, err := out.Get(uint64(i))
				if err != nil || !ok || string(v) != "x" {
					t.Fatalf("key %d = %q, %v, %v", i, v, ok, err)
				}
			}
		})
	}
}

func TestSubroundRecoveryBudgetExhausted(t *testing.T) {
	r := New(Config{Machines: 2, FaultBudget: 2})
	defer r.Close()
	boom := errors.New("boom")
	err := r.Run(Round{
		Name:  "doomed",
		Items: 8,
		Body: func(ctx *Ctx, item int) error {
			if item == 3 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("budget-exhausted run should fail with the item error, got %v", err)
	}
	if got := r.Stats().SubroundRetries; got != 2 {
		t.Fatalf("SubroundRetries = %d, want 2 (the whole budget)", got)
	}
}

// TestSubroundRecoveryStoreFault escalates an injected fatal store fault —
// which the store's own retry tier refuses to retry — into a sub-round
// re-execution, and checks the recovered output matches a clean run.
func TestSubroundRecoveryStoreFault(t *testing.T) {
	run := func(faulty bool) (map[uint64]string, Stats) {
		cfg := Config{Machines: 4, Threads: 2, Seed: 1}
		if faulty {
			cfg.Faults = &dht.FaultPlan{Seed: 7, PFatal: 0.02}
			cfg.Retry = &dht.RetryPolicy{MaxAttempts: 4}
			cfg.FaultBudget = 64
		}
		r := New(cfg)
		defer r.Close()
		in, err := r.OpenStore("in")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 128; i++ {
			if err := in.Put(uint64(i), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		out, err := r.OpenStore("out")
		if err != nil {
			t.Fatal(err)
		}
		err = r.Run(Round{
			Name:  "copy",
			Items: 128,
			Read:  in,
			Body: func(ctx *Ctx, item int) error {
				v, ok, err := ctx.Lookup(uint64(item))
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("missing key %d", item)
				}
				return ctx.Write(out, uint64(item), append(v, byte(item)))
			},
		})
		if err != nil {
			t.Fatalf("faulty=%v: %v", faulty, err)
		}
		got := make(map[uint64]string)
		out.Range(func(k uint64, v []byte) bool {
			got[k] = string(v)
			return true
		})
		return got, r.Stats()
	}

	clean, _ := run(false)
	chaos, st := run(true)
	if st.SubroundRetries < 1 {
		t.Fatalf("expected at least one sub-round re-execution, stats %+v", st)
	}
	if len(clean) != len(chaos) {
		t.Fatalf("clean %d keys, chaos %d keys", len(clean), len(chaos))
	}
	for k, v := range clean {
		if chaos[k] != v {
			t.Fatalf("key %d: clean %q, chaos %q", k, v, chaos[k])
		}
	}
}

// TestSubroundRecoveryPipelined retries a failed share inside a three-stage
// RunStaged sequence whose last round reads a store it also writes: sum
// holds a[i] after the second stage, and the third adds a[i] again, reading
// sum directly.  The failed attempt's buffered writes are discarded, so the
// retry reads sum as the other machines' flushed shares left it and the
// result matches the clean run — nothing is added twice.
func TestSubroundRecoveryPipelined(t *testing.T) {
	const n = 32
	run := func(trip bool) (map[uint64]string, Stats) {
		r := New(Config{Machines: 2, Threads: 2, FaultBudget: 4, Model: testModel()})
		defer r.Close()
		a := newStore(t, r, "a")
		sum := newStore(t, r, "sum")
		var tripped atomic.Bool
		// add writes sum[i] = sum[i] + a[i], an absent sum[i] counting as 0.
		add := func(ctx *Ctx, item int) error {
			v, ok, err := ctx.Lookup(uint64(item))
			if err != nil || !ok {
				return fmt.Errorf("a[%d]: ok=%v err=%v", item, ok, err)
			}
			prev, _, err := sum.Get(uint64(item))
			if err != nil {
				return err
			}
			total := v[0]
			if len(prev) > 0 {
				total += prev[0]
			}
			if err := ctx.Write(sum, uint64(item), []byte{total}); err != nil {
				return err
			}
			if trip && item == 5 && tripped.CompareAndSwap(false, true) {
				return errors.New("injected") // after the write: only discarding undoes it
			}
			return nil
		}
		err := r.RunStaged([]StagedRound{
			{Phase: "produce", Round: Round{
				Name:  "produce",
				Items: n,
				Body: func(ctx *Ctx, item int) error {
					return ctx.Write(a, uint64(item), []byte{byte(item)})
				},
			}},
			{Phase: "first", Round: Round{Name: "first", Items: n, Read: a, Body: add}},
			{Phase: "again", Round: Round{Name: "again", Items: n, Read: a, Body: add}},
		})
		if err != nil {
			t.Fatalf("trip=%v: %v", trip, err)
		}
		got := make(map[uint64]string)
		sum.Range(func(k uint64, v []byte) bool {
			got[k] = string(v)
			return true
		})
		return got, r.Stats()
	}

	clean, _ := run(false)
	chaos, st := run(true)
	if st.SubroundRetries != 1 {
		t.Fatalf("SubroundRetries = %d, want 1", st.SubroundRetries)
	}
	if len(clean) != n || len(chaos) != n {
		t.Fatalf("clean %d keys, chaos %d keys, want %d", len(clean), len(chaos), n)
	}
	for k, v := range clean {
		if v != string([]byte{byte(2 * k)}) {
			t.Fatalf("clean key %d: %q, want 2*%d", k, v, k)
		}
		if chaos[k] != v {
			t.Fatalf("key %d: clean %q, chaos %q", k, v, chaos[k])
		}
	}
}

// TestFaultBudgetZeroKeepsLegacyPath: without a budget, writes apply directly
// (no buffering) and the first item error fails the run.
func TestFaultBudgetZeroKeepsLegacyPath(t *testing.T) {
	r := New(Config{Machines: 2})
	defer r.Close()
	out := newStore(t, r, "out")
	boom := errors.New("boom")
	err := r.Run(Round{
		Name:  "fail",
		Items: 4,
		Body: func(ctx *Ctx, item int) error {
			if err := ctx.Write(out, uint64(item), []byte{1}); err != nil {
				return err
			}
			if item == 2 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if r.Stats().SubroundRetries != 0 {
		t.Fatal("no retries expected without a budget")
	}
	// Unbuffered writes land even from the failing round.
	if out.Len() == 0 {
		t.Fatal("unbuffered writes should have applied")
	}
}

// TestBufferBatchAllocsConstant: a buffered batch copies its values into one
// arena, so buffering it costs the same allocations at every batch size, and
// each copy is capacity-clipped: appending to one leaves the next intact.
func TestBufferBatchAllocsConstant(t *testing.T) {
	ctx := &Ctx{buffered: true}
	allocs := func(n int) float64 {
		pairs := make([]dht.Pair, n)
		for i := range pairs {
			pairs[i] = dht.Pair{Key: uint64(i), Value: []byte(fmt.Sprintf("value %5d", i))}
		}
		// The store is only touched by the flush, which this test never runs.
		buffer := func() {
			ctx.discardWrites()
			if err := ctx.bufferBatch(nil, pairs); err != nil {
				t.Fatal(err)
			}
		}
		buffer()
		cp := ctx.buf[0].pairs
		_ = append(cp[0].Value, 'x')
		for i, p := range cp {
			if p.Key != pairs[i].Key || string(p.Value) != string(pairs[i].Value) || cap(p.Value) != len(p.Value) {
				t.Fatalf("batch of %d: buffered pair %d is (%d, %q, cap %d), want (%d, %q), clipped",
					n, i, p.Key, p.Value, cap(p.Value), pairs[i].Key, pairs[i].Value)
			}
		}
		return testing.AllocsPerRun(20, buffer)
	}
	one := allocs(1)
	for _, n := range []int{16, 1024} {
		if got := allocs(n); got != one {
			t.Fatalf("buffering a batch of %d pairs makes %.1f allocations, one of 1 pair %.1f", n, got, one)
		}
	}
}
