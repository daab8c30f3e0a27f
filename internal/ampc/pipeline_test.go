package ampc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ampcgraph/internal/dht"
	"ampcgraph/internal/simtime"
)

// testModel is a cost model where only compute counts, so modeled durations
// are exact functions of ChargeCompute calls.
func testModel() simtime.CostModel {
	return simtime.CostModel{Name: "test", ComputePerItem: time.Millisecond}
}

func TestSubroundDepsFromDeclaredAccesses(t *testing.T) {
	const machines = 2
	r := New(Config{Machines: machines})
	defer r.Close()
	a := newStore(t, r, "a")
	b := newStore(t, r, "b")

	// checkRound asserts that every machine's share of round j depends on
	// exactly the named predecessor rounds (on every machine), or on nothing
	// when no round is named.  Every conflicting round is recorded, not just
	// the latest per machine — sub-round recovery can reorder a machine's
	// completions, so the scheduler gates on each conflict explicitly.
	checkRound := func(deps [][][]simtime.SubDep, j int, want ...int) {
		t.Helper()
		wanted := make(map[simtime.SubDep]bool)
		for _, i := range want {
			for m := 0; m < machines; m++ {
				wanted[simtime.SubDep{Round: i, Machine: m}] = true
			}
		}
		for m := 0; m < machines; m++ {
			got := deps[j][m]
			if len(got) != len(wanted) {
				t.Fatalf("deps[%d][%d] = %v, want all machines of rounds %v", j, m, got, want)
			}
			for _, dep := range got {
				if !wanted[dep] {
					t.Fatalf("deps[%d][%d] = %v, want all machines of rounds %v", j, m, got, want)
				}
			}
		}
	}

	// Whole-store declarations gate each reader on every machine of the
	// round writing its store — and on nothing else.
	rounds := []Round{
		{Name: "w-a", Writes: []Access{{Store: a}}},
		{Name: "w-b", Writes: []Access{{Store: b}}},
		{Name: "r-a", Read: a},
		{Name: "r-b", Read: b},
	}
	deps := subroundDeps(rounds, machines)
	checkRound(deps, 0)
	checkRound(deps, 1)
	checkRound(deps, 2, 0)
	checkRound(deps, 3, 1)

	// Write-write and read-write hazards also order rounds.
	rounds = []Round{
		{Name: "w-a", Writes: []Access{{Store: a}}},
		{Name: "w-a-again", Writes: []Access{{Store: a}}},
		{Name: "r-b-w-a", Read: b, Writes: []Access{{Store: a}}},
	}
	deps = subroundDeps(rounds, machines)
	checkRound(deps, 0)
	checkRound(deps, 1, 0)
	checkRound(deps, 2, 0, 1)

	// Per-machine span declarations cut the gating to the diagonal: each
	// machine's read of its own range waits only for its own write
	// sub-round.  An Access naming the Read store narrows the default
	// whole-store input access instead of adding a second one.
	spans := []dht.RangeSet{
		dht.NewRangeSet(dht.Span{Lo: 0, Hi: 50}),
		dht.NewRangeSet(dht.Span{Lo: 50, Hi: 100}),
	}
	ranged := []Round{
		{Name: "w", Writes: []Access{RangedBy(a, spans)}},
		{Name: "r", Read: a, Reads: []Access{RangedBy(a, spans)}},
	}
	deps = subroundDeps(ranged, machines)
	for m := 0; m < machines; m++ {
		got := deps[1][m]
		if len(got) != 1 || got[0] != (simtime.SubDep{Round: 0, Machine: m}) {
			t.Fatalf("ranged deps[1][%d] = %v, want own-machine dep only", m, got)
		}
	}
	// Widen strips the spans and restores the whole-store gating.
	deps = subroundDeps(Widen(ranged), machines)
	checkRound(deps, 1, 0)

	// Tokens order rounds that exchange host-side state: spans do not apply.
	tok := NewToken("stage")
	tokens := []Round{
		{Name: "publish", Writes: []Access{{Token: tok}}},
		{Name: "consume", Reads: []Access{{Token: tok}}},
	}
	deps = subroundDeps(tokens, machines)
	checkRound(deps, 1, 0)
}

func TestPipelineCriticalPathAccounting(t *testing.T) {
	// Two independent rounds with opposite straggler machines: the
	// pipelined schedule charges the per-machine critical path, and the
	// barrier accounting of the same durations is kept alongside.
	r := New(Config{Machines: 2, Threads: 1, Pipeline: true, Model: testModel()})
	defer r.Close()
	rounds := []Round{
		// Machine 0 charges 10, machine 1 charges 1 (items 0, 1).
		{Name: "r0", Items: 2, Body: func(ctx *Ctx, item int) error {
			ctx.ChargeCompute(10 - 9*item)
			return nil
		}},
		// Machine 0 charges 1, machine 1 charges 9.
		{Name: "r1", Items: 2, Body: func(ctx *Ctx, item int) error {
			ctx.ChargeCompute(1 + 8*item)
			return nil
		}},
	}
	if err := r.RunPipeline(rounds); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.PipelineSegments != 1 || st.PipelinedRounds != 2 {
		t.Fatalf("segments/rounds = %d/%d", st.PipelineSegments, st.PipelinedRounds)
	}
	// Barrier: 10 + 9 = 19ms.  Pipeline: max(10+1, 1+9) = 11ms.
	if st.BarrierSim != 19*time.Millisecond {
		t.Fatalf("barrier sim %v, want 19ms", st.BarrierSim)
	}
	if st.PipelineSim != 11*time.Millisecond {
		t.Fatalf("pipeline sim %v, want 11ms", st.PipelineSim)
	}
	if st.Sim != st.PipelineSim {
		t.Fatalf("charged sim %v != pipeline sim %v", st.Sim, st.PipelineSim)
	}
	// Barrier idle: (19-11) + (19-10) = 17ms.  Pipeline idle: 0 + 1 = 1ms.
	if st.BarrierIdle != 17*time.Millisecond || st.PipelineIdle != time.Millisecond {
		t.Fatalf("idle %v -> %v, want 17ms -> 1ms", st.BarrierIdle, st.PipelineIdle)
	}
}

func TestPipelineStragglerOverlap(t *testing.T) {
	// Straggler injection: machine 0 is artificially slow in round 0.
	// Round 1 is independent, so the other machines must make round-1
	// progress while machine 0 is still inside round 0 — and machine 0
	// itself must keep program order.  One thread per machine makes the
	// per-machine order observable (with more threads, an idle sibling
	// thread may legally pull co-dispatched independent work early).
	const machines = 4
	r := New(Config{Machines: machines, Threads: 1, Pipeline: true})
	defer r.Close()
	var overlapped atomic.Int64
	var orderViolations atomic.Int64
	var stragglerDone atomic.Bool
	rounds := []Round{
		{
			Name:        "slow",
			Items:       machines,
			Partitioner: func(item int) int { return item },
			Body: func(ctx *Ctx, item int) error {
				if ctx.Machine == 0 {
					time.Sleep(300 * time.Millisecond)
					stragglerDone.Store(true)
				}
				return nil
			},
		},
		{
			Name:        "independent",
			Items:       machines,
			Partitioner: func(item int) int { return item },
			Body: func(ctx *Ctx, item int) error {
				// Overlap is round-1 work running while the straggler's
				// round-0 item is still in flight; a barrier scheduler
				// would always see stragglerDone == true here.
				if ctx.Machine == 0 && !stragglerDone.Load() {
					orderViolations.Add(1)
				}
				if ctx.Machine != 0 && !stragglerDone.Load() {
					overlapped.Add(1)
				}
				return nil
			},
		},
	}
	if err := r.RunPipeline(rounds); err != nil {
		t.Fatal(err)
	}
	if overlapped.Load() == 0 {
		t.Fatal("no machine made round-1 progress while the round-0 straggler was running")
	}
	if orderViolations.Load() != 0 {
		t.Fatalf("machine 0 ran round 1 before finishing round 0 (%d violations)", orderViolations.Load())
	}
}

func TestPipelineGateBlocksDependentRound(t *testing.T) {
	// A round reading a store must not start anywhere before every machine
	// has finished the round writing it — even with a straggler.
	const machines = 4
	r := New(Config{Machines: machines, Threads: 2, Pipeline: true})
	defer r.Close()
	store := newStore(t, r, "gate")
	var writesLeft atomic.Int64
	writesLeft.Store(int64(machines))
	var early atomic.Int64
	rounds := []Round{
		{
			Name:        "write",
			Items:       machines,
			Writes:      []Access{{Store: store}},
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
		},
		{
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
		},
	}
	if err := r.RunPipeline(rounds); err != nil {
		t.Fatal(err)
	}
	if early.Load() != 0 {
		t.Fatalf("dependent round started %d times before the write round drained", early.Load())
	}
}

func TestPipelineWriteReadCacheCoherence(t *testing.T) {
	// Cache-coherence regression: a store written in round i and read in
	// round i+1 must never serve a stale per-machine cache entry under
	// pipelining, with caching enabled and a straggler maximizing overlap.
	const machines = 4
	const n = 400
	r := New(Config{Machines: machines, Threads: 2, Pipeline: true, EnableCache: true})
	defer r.Close()
	r.SetKeyspace(n)
	filler := newStore(t, r, "filler")
	data := newStore(t, r, "data")
	value := func(i int) byte { return byte((i * 7) % 251) }
	rounds := []Round{
		// Independent slow round, so machines enter the write round at
		// very different times.
		{
			Name:        "stagger",
			Items:       machines,
			Writes:      []Access{{Store: filler}},
			Partitioner: func(item int) int { return item },
			Body: func(ctx *Ctx, item int) error {
				time.Sleep(time.Duration(item) * 30 * time.Millisecond)
				return ctx.Write(filler, uint64(item), []byte{1})
			},
		},
		r.WriteTableRound("write-data", data, n, 0, func(i int) []byte { return []byte{value(i)} }),
		{
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
		},
	}
	if err := r.RunPipeline(rounds); err != nil {
		t.Fatal(err)
	}
}

func TestFenceCachesInvalidatesAfterWrites(t *testing.T) {
	// White-box: the per-store fence must drop cache entries when the
	// store's write counter moved after the caches were filled.
	r := New(Config{Machines: 2, EnableCache: true})
	defer r.Close()
	s := newStore(t, r, "fenced")
	r.fenceCaches(s)
	c := r.cacheFor(s, 0)
	if _, ok, err := c.Get(7); ok || err != nil {
		t.Fatalf("expected absent key: %v %v", ok, err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache should hold the absent marker, len %d", c.Len())
	}
	if err := s.Put(7, []byte{42}); err != nil {
		t.Fatal(err)
	}
	r.fenceCaches(s)
	if c.Len() != 0 {
		t.Fatalf("fence did not invalidate the cache, len %d", c.Len())
	}
	if v, ok, err := c.Get(7); err != nil || !ok || v[0] != 42 {
		t.Fatalf("post-fence read %v %v %v, want 42", v, ok, err)
	}
}

func TestConcurrentRunAndRunPipeline(t *testing.T) {
	// Misuse stress: Run and RunPipeline issued concurrently must
	// serialize, not corrupt state or deadlock.
	r := New(Config{Machines: 3, Threads: 2, Pipeline: true})
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
			errs <- r.RunPipeline([]Round{
				{Name: "p0", Items: 30, Body: body},
				{Name: "p1", Items: 30, Body: body},
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
	// Close must wait for an in-flight pipeline to drain, then reject
	// further segments.
	r := New(Config{Machines: 2, Threads: 1, Pipeline: true})
	var items atomic.Int64
	started := make(chan struct{})
	var once sync.Once
	pipeErr := make(chan error, 1)
	go func() {
		pipeErr <- r.RunPipeline([]Round{
			{Name: "slow0", Items: 8, Body: func(ctx *Ctx, item int) error {
				once.Do(func() { close(started) })
				time.Sleep(20 * time.Millisecond)
				items.Add(1)
				return nil
			}},
			{Name: "slow1", Items: 8, Body: func(ctx *Ctx, item int) error {
				time.Sleep(5 * time.Millisecond)
				items.Add(1)
				return nil
			}},
		})
	}()
	<-started
	r.Close() // must block until the pipeline drains
	if err := <-pipeErr; err != nil {
		t.Fatalf("in-flight pipeline failed: %v", err)
	}
	if got := items.Load(); got != 16 {
		t.Fatalf("Close returned before the pipeline drained: %d/16 items", got)
	}
	err := r.RunPipeline([]Round{{Name: "late", Items: 2, Body: func(ctx *Ctx, item int) error { return nil }}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("RunPipeline after Close: %v, want ErrClosed", err)
	}
}

func TestPipelineReportsBodyErrors(t *testing.T) {
	r := New(Config{Machines: 2, Threads: 1, Pipeline: true})
	defer r.Close()
	boom := fmt.Errorf("boom")
	err := r.RunPipeline([]Round{
		{Name: "fine", Items: 4, Body: func(ctx *Ctx, item int) error { return nil }},
		{Name: "failing", Items: 4, Body: func(ctx *Ctx, item int) error {
			if item == 2 {
				return boom
			}
			return nil
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("pipeline error %v, want wrapped boom", err)
	}
}
