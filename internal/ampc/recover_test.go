package ampc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

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
			cfg.Retry = &dht.RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Microsecond, MaxBackoff: 100 * time.Microsecond}
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

// TestSubroundRecoveryPipelined retries a failed share inside a pipelined
// segment without disturbing the rest of the schedule: the output matches the
// clean run and later conflicting sub-rounds observe the recovered writes.
func TestSubroundRecoveryPipelined(t *testing.T) {
	run := func(trip bool) (map[uint64]string, Stats) {
		r := New(Config{Machines: 2, Threads: 2, Pipeline: true, FaultBudget: 4, Model: testModel()})
		defer r.Close()
		a := newStore(t, r, "a")
		b := newStore(t, r, "b")
		var tripped atomic.Bool
		rounds := []Round{
			{
				Name:   "produce",
				Items:  32,
				Writes: []Access{{Store: a}},
				Body: func(ctx *Ctx, item int) error {
					if trip && item == 5 && tripped.CompareAndSwap(false, true) {
						return errors.New("injected")
					}
					return ctx.Write(a, uint64(item), []byte{byte(item)})
				},
			},
			{
				Name:   "consume",
				Items:  32,
				Read:   a,
				Writes: []Access{{Store: b}},
				Body: func(ctx *Ctx, item int) error {
					v, ok, err := ctx.Lookup(uint64(item))
					if err != nil {
						return err
					}
					if !ok {
						return fmt.Errorf("missing key %d: recovered writes not visible", item)
					}
					return ctx.Write(b, uint64(item), append(v, 'y'))
				},
			},
		}
		if err := r.RunPipeline(rounds); err != nil {
			t.Fatalf("trip=%v: %v", trip, err)
		}
		got := make(map[uint64]string)
		b.Range(func(k uint64, v []byte) bool {
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
	if len(clean) != 32 || len(chaos) != 32 {
		t.Fatalf("clean %d keys, chaos %d keys, want 32", len(clean), len(chaos))
	}
	for k, v := range clean {
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
