package ampc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"ampcgraph/internal/dht"
)

// Session/Job layer tests: admission gating, job cancellation, shared
// stores, the compiled-plan cache, and concurrent jobs interleaving on one
// pool.  Run with -race (make race) these double as the data-race proof for
// the serving layer.

// jobStoreRounds builds a write round filling a job-private store with a
// recognizable value per key and a read round verifying every key, both
// partitioned by ownership.  salt varies the values between jobs so a
// cross-job mixup cannot verify.
func jobStoreRounds(rt *Job, n int, salt uint64) (Round, Round, error) {
	store, err := rt.OpenStore(fmt.Sprintf("data-%d", salt))
	if err != nil {
		return Round{}, Round{}, err
	}
	write := Round{
		Name:        "write",
		Items:       n,
		Writes:      []Access{{Store: store}},
		Partitioner: rt.OwnerPartitioner(n),
		Body: func(ctx *Ctx, item int) error {
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], uint64(item)*7+salt)
			return ctx.Write(store, uint64(item), v[:])
		},
	}
	read := Round{
		Name:        "read",
		Items:       n,
		Read:        store,
		Partitioner: rt.OwnerPartitioner(n),
		Body: func(ctx *Ctx, item int) error {
			v, ok, err := ctx.Lookup(uint64(item))
			if err != nil || !ok {
				return fmt.Errorf("key %d: ok=%v err=%v", item, ok, err)
			}
			if got := binary.LittleEndian.Uint64(v); got != uint64(item)*7+salt {
				return fmt.Errorf("key %d: value %d, want %d", item, got, uint64(item)*7+salt)
			}
			return nil
		},
	}
	return write, read, nil
}

// TestConcurrentJobsInterleaveOnOnePool runs several pipelined jobs at once
// against one session: every job must complete, verify its own store's
// contents, and observe only its own rounds in its per-job statistics.
func TestConcurrentJobsInterleaveOnOnePool(t *testing.T) {
	const n, jobs = 200, 6
	s := NewSession(Config{Machines: 4, Threads: 2, Pipeline: true, Seed: 1})
	defer s.Close()
	s.SetKeyspace(n)

	var wg sync.WaitGroup
	errs := make(chan error, jobs*2)
	for jid := 0; jid < jobs; jid++ {
		wg.Add(1)
		go func(jid int) {
			defer wg.Done()
			rt, err := s.NewJob()
			if err != nil {
				errs <- err
				return
			}
			defer rt.Close()
			write, read, err := jobStoreRounds(rt, n, uint64(jid))
			if err != nil {
				errs <- err
				return
			}
			if err := rt.RunPipeline([]Round{write, read}); err != nil {
				errs <- err
				return
			}
			st := rt.Stats()
			if st.Rounds != 2 {
				errs <- fmt.Errorf("job %d: %d rounds in per-job stats, want 2", jid, st.Rounds)
			}
			if len(st.MachineBusy) != 4 {
				errs <- fmt.Errorf("job %d: MachineBusy has %d machines, want 4", jid, len(st.MachineBusy))
				return
			}
			var busy time.Duration
			for _, d := range st.MachineBusy {
				busy += d
			}
			if busy <= 0 {
				errs <- fmt.Errorf("job %d: no machine busy time recorded", jid)
			}
		}(jid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMaxJobsAdmissionFIFO pins the admission gate: with MaxJobs=1 a second
// job blocks until the first closes, and queued jobs are admitted in arrival
// order.
func TestMaxJobsAdmissionFIFO(t *testing.T) {
	s := NewSession(Config{Machines: 2, Threads: 1, MaxJobs: 1, Seed: 1})
	defer s.Close()

	waitForWaiters := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			s.admitMu.Lock()
			got := len(s.waiters)
			s.admitMu.Unlock()
			if got >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("admission queue never reached %d waiters", want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	first, err := s.NewJob()
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt, err := s.NewJob()
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			admitted <- i
			rt.Close()
		}(i)
		waitForWaiters(i) // waiter i is queued before waiter i+1 starts
	}

	select {
	case got := <-admitted:
		t.Fatalf("waiter %d admitted while the slot was held", got)
	case <-time.After(20 * time.Millisecond):
	}
	first.Close()
	if got := <-admitted; got != 1 {
		t.Fatalf("waiter %d admitted first, want FIFO order", got)
	}
	if got := <-admitted; got != 2 {
		t.Fatalf("waiter %d admitted second, want FIFO order", got)
	}
	wg.Wait()
}

// TestAdmissionCancellation pins the gate's context behavior: a waiter whose
// context is cancelled stops waiting with an admission error, and the held
// slot is unaffected.
func TestAdmissionCancellation(t *testing.T) {
	s := NewSession(Config{Machines: 2, Threads: 1, MaxJobs: 1, Seed: 1})
	defer s.Close()
	first, err := s.NewJob()
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.NewJobContext(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled admission wait: %v, want context.Canceled", err)
	}

	// The session stays usable: after the slot frees, jobs are admitted.
	first.Close()
	rt, err := s.NewJob()
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
}

// TestJobCancelMidPipelineLeavesSessionReusable cancels a job's context from
// inside its first round: the pipelined scheduler must drain and return the
// context error — not hang, not run the dependent round — and the session
// must stay fully usable for the next job.
func TestJobCancelMidPipelineLeavesSessionReusable(t *testing.T) {
	const n = 64
	s := NewSession(Config{Machines: 2, Threads: 1, Pipeline: true, Seed: 1})
	defer s.Close()
	s.SetKeyspace(n)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt, err := s.NewJobContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	store, err := rt.OpenStore("doomed")
	if err != nil {
		t.Fatal(err)
	}
	var readRan sync.Once
	reached := false
	write := Round{
		Name:        "write",
		Items:       n,
		Writes:      []Access{{Store: store}},
		Partitioner: rt.OwnerPartitioner(n),
		Body: func(c *Ctx, item int) error {
			cancel() // cancel mid-flight: the scheduler must drain, not hang
			return c.Write(store, uint64(item), []byte{1})
		},
	}
	read := Round{
		Name:        "read",
		Items:       n,
		Read:        store,
		Partitioner: rt.OwnerPartitioner(n),
		Body: func(c *Ctx, item int) error {
			readRan.Do(func() { reached = true })
			return nil
		},
	}
	err = rt.RunPipeline([]Round{write, read})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipeline: %v, want context.Canceled", err)
	}
	if reached {
		t.Fatal("dependent round ran after cancellation")
	}
	// Every later round of the cancelled job fails fast with the same error.
	if err := rt.Run(read); !errors.Is(err, context.Canceled) {
		t.Fatalf("round on cancelled job: %v, want context.Canceled", err)
	}
	rt.Close()

	// The session is untouched: a fresh job runs a full pipeline and
	// verifies its own data.
	rt2, err := s.NewJob()
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	write2, read2, err := jobStoreRounds(rt2, n, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.RunPipeline([]Round{write2, read2}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSharedStoreSharedAcrossJobs pins the shared-store registry: one
// store per name, unaffected by job closes.
func TestOpenSharedStoreSharedAcrossJobs(t *testing.T) {
	s := NewSession(Config{Machines: 2, Threads: 1, Seed: 1})
	defer s.Close()

	st1, err := s.OpenSharedStore("graph")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.OpenSharedStore("graph")
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatal("OpenSharedStore returned distinct stores for one name")
	}
	other, err := s.OpenSharedStore("other")
	if err != nil {
		t.Fatal(err)
	}
	if other == st1 {
		t.Fatal("distinct names share a store")
	}

	// Closing a job must not close session stores.
	rt, err := s.NewJob()
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if err := st1.Put(1, []byte("x")); err != nil {
		t.Fatalf("shared store unusable after a job closed: %v", err)
	}
}

// TestPlanCacheHitsAndOwnershipInvalidation pins the compiled-plan cache: a
// repeated key hits, re-declaring identical ownership weights neither bumps
// the generation nor invalidates, and changed weights do both.
func TestPlanCacheHitsAndOwnershipInvalidation(t *testing.T) {
	const n = 120
	s := NewSession(Config{Machines: 4, Threads: 2, Pipeline: true, Placement: PlacementWeighted, Seed: 1})
	defer s.Close()
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1 + i%3
	}
	s.SetOwnership(weights)
	rt, err := s.NewJob()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Shared input table, written once and frozen — the serving shape.
	store, err := s.OpenSharedStore("graph")
	if err != nil {
		t.Fatal(err)
	}
	fill := Round{
		Name:        "fill",
		Items:       n,
		Writes:      []Access{{Store: store}},
		Partitioner: rt.OwnerPartitioner(n),
		Body: func(c *Ctx, item int) error {
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], uint64(item)*3+1)
			return c.Write(store, uint64(item), v[:])
		},
	}
	if err := rt.Run(fill); err != nil {
		t.Fatal(err)
	}
	store.Freeze()

	// Per-query rounds: a range-confined local read stage ordered before a
	// spill stage by a token — the same conflict pattern the core drivers
	// compile.
	query := func() []StagedRound {
		spans := rt.OwnedRanges(n)
		tok := NewToken("q-local")
		local := Round{
			Name:        "local",
			Items:       n,
			Read:        store,
			Reads:       []Access{RangedBy(store, spans)},
			Writes:      []Access{{Token: tok}},
			Partitioner: rt.OwnerPartitioner(n),
			Body: func(c *Ctx, item int) error {
				v, ok, err := c.Lookup(uint64(item))
				if err != nil || !ok || binary.LittleEndian.Uint64(v) != uint64(item)*3+1 {
					return fmt.Errorf("key %d: ok=%v err=%v", item, ok, err)
				}
				return nil
			},
		}
		spill := Round{
			Name:        "spill",
			Items:       n,
			Read:        store,
			Reads:       []Access{{Token: tok}},
			Partitioner: rt.OwnerPartitioner(n),
			Body:        func(c *Ctx, item int) error { return nil },
		}
		return []StagedRound{{Phase: "local", Round: local}, {Phase: "spill", Round: spill}}
	}

	p1 := rt.CompilePlan("query", query())
	if p1.Cached {
		t.Fatal("first compilation reported a cache hit")
	}
	if err := rt.RunPlan(p1); err != nil {
		t.Fatal(err)
	}
	p2 := rt.CompilePlan("query", query())
	if !p2.Cached {
		t.Fatal("second compilation missed the plan cache")
	}
	if err := rt.RunPlan(p2); err != nil {
		t.Fatal(err)
	}
	if st := s.PlanCacheStats(); st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("plan cache stats %+v, want 1 hit / 1 miss / size 1", st)
	}

	// Identical weights: the fast path must keep the generation, so the next
	// compilation still hits.
	gen := s.ownGen.Load()
	s.SetOwnership(weights)
	if got := s.ownGen.Load(); got != gen {
		t.Fatalf("re-declaring identical weights bumped the ownership generation %d -> %d", gen, got)
	}
	if p := rt.CompilePlan("query", query()); !p.Cached {
		t.Fatal("compilation after an identical SetOwnership missed")
	}

	// Changed weights: new generation, so the compiled analysis is stale and
	// the same key misses.
	weights[0] += 10
	s.SetOwnership(weights)
	if got := s.ownGen.Load(); got == gen {
		t.Fatal("changed weights did not bump the ownership generation")
	}
	if p := rt.CompilePlan("query", query()); p.Cached {
		t.Fatal("compilation after an ownership change hit a stale plan")
	}
}

// TestConcurrentOpenStoreDiskDirectories: stores opened concurrently under
// one name on the disk backend (what concurrent jobs running the same
// algorithm do) each get a log directory of their own and read back exactly
// their own writes.
func TestConcurrentOpenStoreDiskDirectories(t *testing.T) {
	const openers, keys = 16, 32
	s := NewSession(Config{Machines: 2, Backend: BackendDisk, DiskDir: t.TempDir()})
	defer s.Close()
	stores := make([]*dht.Store, openers)
	var wg sync.WaitGroup
	for g := range stores {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, err := s.OpenStore("same")
			if err != nil {
				t.Error(err)
				return
			}
			stores[g] = st
			for k := 0; k < keys; k++ {
				if err := st.Put(uint64(k), []byte{byte(g), byte(k)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	dirs, err := os.ReadDir(s.diskBase)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != openers {
		t.Fatalf("%d stores opened into %d directories", openers, len(dirs))
	}
	for g, st := range stores {
		if st.Len() != keys {
			t.Fatalf("store %d holds %d keys, want its own %d", g, st.Len(), keys)
		}
		for k := 0; k < keys; k++ {
			v, ok, err := st.Get(uint64(k))
			if err != nil || !ok || len(v) != 2 || v[0] != byte(g) || v[1] != byte(k) {
				t.Fatalf("store %d key %d = %v (ok=%v err=%v), want its own write", g, k, v, ok, err)
			}
		}
	}
}

// TestNewJobOnClosedSession pins the post-Close contract.
func TestNewJobOnClosedSession(t *testing.T) {
	s := NewSession(Config{Machines: 2, Threads: 1, Seed: 1})
	s.Close()
	if _, err := s.NewJob(); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewJob on closed session: %v, want ErrClosed", err)
	}
}

// TestPlanCacheBoundedAcrossGenerations: the cache holds one ownership
// generation.  A session whose keyspace alternates between two graphs bumps
// the generation on every switch; the cache must hold no more than the keys
// compiled under the current one — not one dependency matrix per key per
// generation — and within a generation repeated compilations hit again.
func TestPlanCacheBoundedAcrossGenerations(t *testing.T) {
	const bumps, liveKeys = 50, 2
	s := NewSession(Config{Machines: 4, Threads: 1, Pipeline: true, Seed: 1})
	defer s.Close()
	stages := func() []StagedRound {
		tok := NewToken("t")
		nop := func(*Ctx, int) error { return nil }
		return []StagedRound{
			{Phase: "a", Round: Round{Name: "a", Items: 4, Writes: []Access{{Token: tok}}, Body: nop}},
			{Phase: "b", Round: Round{Name: "b", Items: 4, Reads: []Access{{Token: tok}}, Body: nop}},
		}
	}
	for i := 0; i < bumps; i++ {
		s.SetKeyspace(100 + 100*(i%2)) // two graphs in turn: a new generation each time
		for k := 0; k < liveKeys; k++ {
			if p := s.CompilePlan(fmt.Sprintf("query-%d", k), stages()); p.Cached {
				t.Fatalf("bump %d: key %d hit an analysis of an older generation", i, k)
			}
		}
		if size := s.PlanCacheStats().Size; size > liveKeys {
			t.Fatalf("after %d generation bumps the cache holds %d entries for %d live keys", i+1, size, liveKeys)
		}
	}
	before := s.PlanCacheStats()
	if before.Hits != 0 || before.Misses != bumps*liveKeys {
		t.Fatalf("stats %+v, want 0 hits / %d misses", before, bumps*liveKeys)
	}
	for k := 0; k < liveKeys; k++ {
		if p := s.CompilePlan(fmt.Sprintf("query-%d", k), stages()); !p.Cached {
			t.Fatalf("key %d missed within one generation", k)
		}
	}
	if after := s.PlanCacheStats(); after.Hits != liveKeys || after.Size != liveKeys {
		t.Fatalf("stats %+v, want %d hits and size %d", after, liveKeys, liveKeys)
	}
}

// TestOpenSharedStoreClosedOnceBySession: however many times a shared store
// is opened, the session holds it once and closes it once — one log directory
// while it lives, none after Session.Close.
func TestOpenSharedStoreClosedOnceBySession(t *testing.T) {
	const opens = 8
	dir := t.TempDir()
	s := NewSession(Config{Machines: 2, Threads: 1, Backend: BackendDisk, DiskDir: dir, Seed: 1})
	var st *dht.Store
	for i := 0; i < opens; i++ {
		got, err := s.OpenSharedStore("graph")
		if err != nil {
			t.Fatal(err)
		}
		if st != nil && got != st {
			t.Fatalf("open %d returned a second store", i)
		}
		st = got
	}
	if err := st.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if stores, _, _ := s.LiveStores(); stores != 1 {
		t.Fatalf("%d opens left %d stores for the session to close, want 1", opens, stores)
	}
	if logs, _ := os.ReadDir(s.DiskBase()); len(logs) != 1 {
		t.Fatalf("%d store directories under the session's disk base, want 1", len(logs))
	}
	s.Close()
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("%d entries left under DiskDir after Session.Close", len(left))
	}
	if err := st.Close(); err != nil {
		t.Fatalf("the session's close left the store half closed: %v", err)
	}
	if got := st.Len(); got != 1 {
		t.Fatalf("Len after close = %d, want the close-time snapshot 1", got)
	}
	s.Close() // twice is a no-op
}
