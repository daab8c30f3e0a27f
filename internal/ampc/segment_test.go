package ampc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ampcgraph/internal/dht"
	"ampcgraph/internal/simtime"
)

// Executor tests: every entry point runs a round sequence one barrier
// segment per round through the one executor, so they must agree on the
// stores' contents and on the accounting.

// segmentSequence builds a write -> ranged read -> whole read sequence on
// fresh stores of rt: round 0 fills a, round 1 has every machine read its own
// keys of a into b, round 2 reads a at its own and at a foreign key into c.
// With flaky set, one item of the ranged read fails on its first execution.
func segmentSequence(t *testing.T, rt *Job, n int, flaky bool) ([]StagedRound, []*dht.Store) {
	a, b, c := newStore(t, rt, "a"), newStore(t, rt, "b"), newStore(t, rt, "c")
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	lookup := func(ctx *Ctx, key int) (uint64, error) {
		v, ok, err := ctx.Lookup(uint64(key))
		if err != nil || !ok {
			return 0, fmt.Errorf("key %d: ok=%v err=%v", key, ok, err)
		}
		return binary.LittleEndian.Uint64(v), nil
	}
	var tripped atomic.Bool
	return []StagedRound{
		{Phase: "write", Round: rt.WriteTableRound("write", a, n, 1, func(i int) []byte { return u64(uint64(i) * 3) })},
		{Phase: "ranged", Round: Round{
			Name:        "ranged",
			Items:       n,
			Read:        a,
			Partitioner: rt.OwnerPartitioner(n),
			Body: func(ctx *Ctx, item int) error {
				if flaky && item == n/3 && tripped.CompareAndSwap(false, true) {
					return errors.New("injected")
				}
				v, err := lookup(ctx, item)
				if err != nil {
					return err
				}
				return ctx.Write(b, uint64(item), u64(v+1))
			},
		}},
		{Phase: "whole", Round: Round{
			Name:        "whole",
			Items:       n,
			Read:        a,
			Partitioner: rt.OwnerPartitioner(n),
			Body: func(ctx *Ctx, item int) error {
				own, err := lookup(ctx, item)
				if err != nil {
					return err
				}
				far, err := lookup(ctx, (item+n/2)%n)
				if err != nil {
					return err
				}
				return ctx.Write(c, uint64(item), u64(own+far))
			},
		}},
	}, []*dht.Store{a, b, c}
}

func TestEntryPointsShareOneExecutor(t *testing.T) {
	const n = 96
	entries := []struct {
		name string
		// phased entry points run their stages under the stages' phases.
		phased bool
		run    func(rt *Job, stages []StagedRound) error
	}{
		{"Run", true, func(rt *Job, stages []StagedRound) error {
			for _, st := range stages {
				if err := rt.Phase(st.Phase, func() error { return rt.Run(st.Round) }); err != nil {
					return err
				}
			}
			return nil
		}},
		{"RunPipeline", false, func(rt *Job, stages []StagedRound) error {
			rounds := make([]Round, len(stages))
			for i, st := range stages {
				rounds[i] = st.Round
			}
			return rt.RunPipeline(rounds)
		}},
		{"RunStaged", true, func(rt *Job, stages []StagedRound) error { return rt.RunStaged(stages) }},
	}
	// accounting is everything two runs of the same rounds must agree on.
	type accounting struct {
		Sim, BarrierIdle                     time.Duration
		Rounds, Retries                      int
		Reads, Writes, BytesRead, BytesWrite int64
		CacheHits, CacheMisses               int64
	}
	var wantContents [][]uint64
	// Config.Pipeline is deprecated and ignored: both settings must cut the
	// same one-round segments and agree on everything.
	for _, pipeline := range []bool{false, true} {
		for _, budget := range []int{0, 2} {
			var want *accounting
			for _, e := range entries {
				name := fmt.Sprintf("%s/pipeline=%v/budget=%d", e.name, pipeline, budget)
				t.Run(name, func(t *testing.T) {
					rt := New(Config{Machines: 4, Threads: 1, Seed: 1, EnableCache: true,
						Placement: PlacementOwnerAffine, Pipeline: pipeline, FaultBudget: budget})
					defer rt.Close()
					rt.SetKeyspace(n)
					stages, stores := segmentSequence(t, rt, n, budget > 0)
					if err := e.run(rt, stages); err != nil {
						t.Fatal(err)
					}
					st := rt.Stats()

					var contents [][]uint64
					for _, store := range stores {
						vals := make([]uint64, n)
						for k := range vals {
							v, ok, err := store.Get(uint64(k))
							if err != nil || !ok {
								t.Fatalf("store %s key %d: ok=%v err=%v", store.Name(), k, ok, err)
							}
							vals[k] = binary.LittleEndian.Uint64(v)
						}
						contents = append(contents, vals)
					}
					if wantContents == nil {
						wantContents = contents
					} else if !reflect.DeepEqual(contents, wantContents) {
						t.Fatal("store contents differ from the first run's")
					}

					var phases, wantPhases []string
					for _, ph := range st.Phases {
						phases = append(phases, ph.Name)
					}
					if e.phased {
						wantPhases = []string{"write", "ranged", "whole"}
					}
					if !reflect.DeepEqual(phases, wantPhases) {
						t.Fatalf("phases %v, want %v", phases, wantPhases)
					}

					got := accounting{st.Sim, st.BarrierIdle, st.Rounds, st.SubroundRetries,
						st.KVReads, st.KVWrites, st.KVBytesRead, st.KVBytesWritten,
						st.CacheHits, st.CacheMisses}
					if got.Rounds != 3 || got.CacheHits == 0 || got.Retries != budget/2 {
						t.Fatalf("implausible accounting %+v", got)
					}
					if want == nil {
						want = &got
					} else if got != *want {
						t.Fatalf("accounting\n %+v\nwant\n %+v", got, *want)
					}
				})
			}
		}
	}
}

// TestSegmentReportsLowestFailedSubround: when several machines of a round
// fail with no budget left, the round's error is the lowest machine's —
// however late its completion arrives — and a failed round ends the
// sequence.
func TestSegmentReportsLowestFailedSubround(t *testing.T) {
	const machines = 4
	failures := make([][]error, 3)
	for rj := range failures {
		failures[rj] = make([]error, machines)
		for m := range failures[rj] {
			failures[rj][m] = fmt.Errorf("round %d machine %d failed", rj, m)
		}
	}
	// failing builds round rj: the named machines fail, the lowest of them
	// last.
	failing := func(rj int, fail ...int) Round {
		return Round{Name: fmt.Sprintf("r%d", rj), Items: machines, Body: func(ctx *Ctx, item int) error {
			for i, m := range fail {
				if m == ctx.Machine {
					if i == 0 {
						time.Sleep(2 * time.Millisecond)
					}
					return failures[rj][m]
				}
			}
			return nil
		}}
	}
	for rep := 0; rep < 20; rep++ {
		r := New(Config{Machines: machines, Threads: 2})
		if err := r.Run(failing(0, 1, 3)); !errors.Is(err, failures[0][1]) {
			t.Fatalf("rep %d: round failed with %v, want machine 1's error", rep, err)
		}
		// Machines 1 and 3 fail in the middle round, machine 0 in the last,
		// which never runs.
		err := r.RunStaged(staged(failing(0), failing(1, 1, 3), failing(2, 0)))
		if !errors.Is(err, failures[1][1]) {
			t.Fatalf("rep %d: three-round sequence failed with %v, want round 1 machine 1's error", rep, err)
		}
		if got := r.Stats().Rounds; got != 3 {
			t.Fatalf("rep %d: %d rounds ran, want 3 (the round after the failure must not)", rep, got)
		}
		r.Close()
	}
}

// testModel is a cost model where only compute counts, so modeled durations
// are exact functions of ChargeCompute calls.
func testModel() simtime.CostModel {
	return simtime.CostModel{Name: "test", ComputePerItem: time.Millisecond}
}

// staged wraps rounds as phaseless stages.
func staged(rounds ...Round) []StagedRound {
	stages := make([]StagedRound, len(rounds))
	for i, rd := range rounds {
		stages[i].Round = rd
	}
	return stages
}

// TestPipelineCriticalPathAccounting: a sequence of rounds is charged its
// barrier critical path — the sum over rounds of the slowest machine — and
// Stats.BarrierIdle is the sum over rounds of Σ_m (max − busy_m), here on
// three uneven rounds, the last of which leaves machine 2 without items.
func TestPipelineCriticalPathAccounting(t *testing.T) {
	r := New(Config{Machines: 3, Threads: 1, Model: testModel()})
	defer r.Close()
	// busy[j][m] is machine m's compute in round j, in milliseconds.
	busy := [][]int{{5, 2, 1}, {1, 6, 3}, {4, 9}}
	var rounds []Round
	for j, row := range busy {
		rounds = append(rounds, Round{
			Name:        fmt.Sprintf("r%d", j),
			Items:       len(row),
			Partitioner: func(item int) int { return item },
			Body: func(ctx *Ctx, item int) error {
				ctx.ChargeCompute(row[item])
				return nil
			},
		})
	}
	if err := r.RunStaged(staged(rounds...)); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Slowest machines: 5 + 6 + 9.
	if st.Sim != ms(20) {
		t.Fatalf("sim %v, want 20ms", st.Sim)
	}
	// Idle: (0+3+4) + (5+0+3) + (5+0+9).
	if st.BarrierIdle != ms(29) {
		t.Fatalf("barrier idle %v, want 29ms", st.BarrierIdle)
	}
	if want := []time.Duration{ms(10), ms(17), ms(4)}; !reflect.DeepEqual(st.MachineBusy, want) {
		t.Fatalf("machine busy %v, want %v", st.MachineBusy, want)
	}
}

func TestPipelineGateBlocksDependentRound(t *testing.T) {
	// A round reading a store must not start anywhere before every machine
	// has finished the round writing it — even with a straggler.
	const machines = 4
	r := New(Config{Machines: machines, Threads: 2})
	defer r.Close()
	store := newStore(t, r, "gate")
	var writesLeft atomic.Int64
	writesLeft.Store(int64(machines))
	var early atomic.Int64
	write := Round{
		Name:        "write",
		Items:       machines,
		Partitioner: func(item int) int { return item },
		Body: func(ctx *Ctx, item int) error {
			if ctx.Machine == 0 {
				time.Sleep(100 * time.Millisecond)
			}
			if err := ctx.Write(store, uint64(item), []byte{byte(item)}); err != nil {
				return err
			}
			writesLeft.Add(-1)
			return nil
		},
	}
	read := Round{
		Name:        "read",
		Items:       machines,
		Read:        store,
		Partitioner: func(item int) int { return item },
		Body: func(ctx *Ctx, item int) error {
			if writesLeft.Load() != 0 {
				early.Add(1)
			}
			v, ok, err := ctx.Lookup(uint64(item))
			if err != nil || !ok || v[0] != byte(item) {
				return fmt.Errorf("read %d: %v %v %v", item, v, ok, err)
			}
			return nil
		},
	}
	if err := r.RunStaged(staged(write, read)); err != nil {
		t.Fatal(err)
	}
	if early.Load() != 0 {
		t.Fatalf("dependent round started %d times before the write round drained", early.Load())
	}
}

func TestPipelineWriteReadCacheCoherence(t *testing.T) {
	// Cache-coherence regression: a store written in round i and read in
	// round i+1 must never serve a stale per-machine cache entry, with
	// caching enabled and machines entering the write round at very
	// different times.
	const machines = 4
	const n = 400
	r := New(Config{Machines: machines, Threads: 2, EnableCache: true})
	defer r.Close()
	r.SetKeyspace(n)
	filler := newStore(t, r, "filler")
	data := newStore(t, r, "data")
	value := func(i int) byte { return byte((i * 7) % 251) }
	stagger := Round{
		Name:        "stagger",
		Items:       machines,
		Partitioner: func(item int) int { return item },
		Body: func(ctx *Ctx, item int) error {
			time.Sleep(time.Duration(item) * 30 * time.Millisecond)
			return ctx.Write(filler, uint64(item), []byte{1})
		},
	}
	readData := Round{
		Name:  "read-data",
		Items: n,
		Read:  data,
		// Every machine reads keys it does not own, so reads cross
		// machine caches arbitrarily.
		Partitioner: func(item int) int { return (item + 1) % machines },
		Body: func(ctx *Ctx, item int) error {
			v, ok, err := ctx.Lookup(uint64(item))
			if err != nil {
				return err
			}
			if !ok || len(v) != 1 || v[0] != value(item) {
				return fmt.Errorf("stale or missing value for %d: %v %v", item, v, ok)
			}
			return nil
		},
	}
	writeData := r.WriteTableRound("write-data", data, n, 0, func(i int) []byte { return []byte{value(i)} })
	if err := r.RunStaged(staged(stagger, writeData, readData)); err != nil {
		t.Fatal(err)
	}
}

// TestCachesFrontOnlyFrozenStores pins the invariant that keeps every cache
// coherent: a round's Read store is frozen before any share runs, so a Body
// writing it fails with dht.ErrFrozen — at once unbuffered, at the flush
// under a fault budget — and a cache is refused for a store not yet frozen.
func TestCachesFrontOnlyFrozenStores(t *testing.T) {
	writeOwnRead := func(t *testing.T, r *Job, s *dht.Store) error {
		return r.Run(Round{
			Name:  "write-own-read",
			Items: 8,
			Read:  s,
			Body: func(ctx *Ctx, item int) error {
				return ctx.Write(s, uint64(item), []byte{1})
			},
		})
	}
	cases := []struct {
		name   string
		budget int
		run    func(t *testing.T, r *Job, s *dht.Store) error
		frozen bool // the error must wrap dht.ErrFrozen
	}{
		{"round writes its Read/unbuffered", 0, writeOwnRead, true},
		{"round writes its Read/buffered", 2, writeOwnRead, true},
		{"cacheFor on an unfrozen store", 0, func(t *testing.T, r *Job, s *dht.Store) error {
			_, err := r.cacheFor(s, 0)
			if ferr := s.Freeze(); ferr != nil {
				t.Fatal(ferr)
			}
			if _, ferr := r.cacheFor(s, 0); ferr != nil {
				t.Fatalf("cacheFor on the frozen store: %v", ferr)
			}
			return err
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := New(Config{Machines: 2, Threads: 2, EnableCache: true, FaultBudget: tc.budget})
			defer r.Close()
			s := newStore(t, r, "in")
			err := tc.run(t, r, s)
			if err == nil {
				t.Fatal("no error")
			}
			if tc.frozen != errors.Is(err, dht.ErrFrozen) {
				t.Fatalf("error %v: wraps ErrFrozen = %v, want %v", err, !tc.frozen, tc.frozen)
			}
			if s.Len() != 0 {
				t.Fatalf("a refused write landed: %d keys", s.Len())
			}
		})
	}
}

func TestConcurrentRunAndRunPipeline(t *testing.T) {
	// Misuse stress: Run and RunStaged issued concurrently on one job must
	// serialize round by round, not corrupt state or deadlock.
	r := New(Config{Machines: 3, Threads: 2})
	defer r.Close()
	var total atomic.Int64
	body := func(ctx *Ctx, item int) error {
		total.Add(1)
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 10; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			errs <- r.Run(Round{Name: "solo", Items: 30, Body: body})
		}()
		go func() {
			defer wg.Done()
			errs <- r.RunStaged([]StagedRound{
				{Phase: "p0", Round: Round{Name: "p0", Items: 30, Body: body}},
				{Phase: "p1", Round: Round{Name: "p1", Items: 30, Body: body}},
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := total.Load(); got != 10*30*3 {
		t.Fatalf("items processed %d, want %d", got, 10*30*3)
	}
	if got := r.Stats().Rounds; got != 30 {
		t.Fatalf("rounds %d, want 30", got)
	}
}

func TestCloseDuringInFlightPipeline(t *testing.T) {
	// Close racing a staged sequence waits for the round in flight to drain,
	// then the next stage fails with ErrClosed — no panic, no half-run round.
	r := New(Config{Machines: 2, Threads: 1})
	var first, second atomic.Int64
	started := make(chan struct{})
	var once sync.Once
	seqErr := make(chan error, 1)
	go func() {
		seqErr <- r.RunStaged([]StagedRound{
			{Phase: "slow0", Round: Round{Name: "slow0", Items: 8, Body: func(ctx *Ctx, item int) error {
				once.Do(func() { close(started) })
				time.Sleep(50 * time.Millisecond)
				first.Add(1)
				return nil
			}}},
			{Phase: "slow1", Round: Round{Name: "slow1", Items: 8, Body: func(ctx *Ctx, item int) error {
				second.Add(1)
				return nil
			}}},
		})
	}()
	<-started
	r.Close() // must block until the first round drains
	if got := first.Load(); got != 8 {
		t.Fatalf("Close returned before the round in flight drained: %d/8 items", got)
	}
	if err := <-seqErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("staged sequence racing Close: %v, want ErrClosed", err)
	}
	if got := second.Load(); got != 0 {
		t.Fatalf("the stage after Close ran %d items", got)
	}
	err := r.RunStaged(staged(Round{Name: "late", Items: 2, Body: func(ctx *Ctx, item int) error { return nil }}))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("RunStaged after Close: %v, want ErrClosed", err)
	}
}

func TestPipelineReportsBodyErrors(t *testing.T) {
	r := New(Config{Machines: 2, Threads: 1})
	defer r.Close()
	boom := fmt.Errorf("boom")
	err := r.RunStaged(staged(
		Round{Name: "fine", Items: 4, Body: func(ctx *Ctx, item int) error { return nil }},
		Round{Name: "failing", Items: 4, Body: func(ctx *Ctx, item int) error {
			if item == 2 {
				return boom
			}
			return nil
		}},
	))
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "failing") {
		t.Fatalf("staged error %v, want boom wrapped with the round's name", err)
	}
}
