package ampc

import (
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"

	"ampcgraph/internal/dht"
)

// Store-lifetime tests: a job owns the stores opened through its handle and
// Job.Close releases them, while every session-wide counter keeps reading as
// if they were still there.

// runStoreJob runs one write-then-verify-twice job over its own n-key store,
// a phase per round, and returns the per-phase KV bytes it was attributed.
func runStoreJob(rt *Job, n int, salt uint64) ([]int64, error) {
	write, read, err := jobStoreRounds(rt, n, salt)
	if err != nil {
		return nil, err
	}
	if err := rt.Phase("write", func() error { return rt.Run(write) }); err != nil {
		return nil, err
	}
	// The second pass is served by the per-machine caches where enabled.
	for pass := 0; pass < 2; pass++ {
		if err := rt.Phase("read", func() error { return rt.Run(read) }); err != nil {
			return nil, err
		}
	}
	var kv []int64
	for _, p := range rt.Stats().Phases {
		kv = append(kv, p.KVBytes)
	}
	return kv, nil
}

// TestJobCloseReleasesStoresAfterInFlightRun closes a job from a second
// goroutine while one of its rounds is running on the disk backend: Close
// must queue behind the round — which goes on writing its store — then
// release the store and its log directory; afterwards the job refuses new
// stores and rounds with ErrClosed, and closing again is a no-op.
func TestJobCloseReleasesStoresAfterInFlightRun(t *testing.T) {
	const n = 32
	s := NewSession(Config{Machines: 2, Threads: 1, Backend: "disk", DiskDir: t.TempDir(), Seed: 1})
	defer s.Close()
	rt, err := s.NewJob()
	if err != nil {
		t.Fatal(err)
	}
	store, err := rt.OpenStore("table")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, n)
	gate := make(chan struct{})
	round := Round{
		Name:  "slow-write",
		Items: n,
		Body: func(c *Ctx, item int) error {
			entered <- struct{}{}
			<-gate
			return c.Write(store, uint64(item), []byte{byte(item)})
		},
	}
	runErr := make(chan error, 1)
	go func() { runErr <- rt.Run(round) }()
	<-entered
	closed := make(chan struct{})
	go func() { rt.Close(); close(closed) }()
	for !rt.closed.Load() {
		runtime.Gosched()
	}
	close(gate)
	if err := <-runErr; err != nil {
		t.Fatalf("round in flight while the job closed: %v", err)
	}
	<-closed

	if stores, caches := s.LiveStores(); stores+caches != 0 {
		t.Fatalf("after Close the session holds %d stores, %d cache sets", stores, caches)
	}
	if dirs, _ := os.ReadDir(s.DiskBase()); len(dirs) != 0 {
		t.Fatalf("%d store directories left behind", len(dirs))
	}
	if got := rt.Stats().KVWrites; got != n {
		t.Fatalf("KVWrites = %d after the store was released, want %d", got, n)
	}
	rt.Close()
	if _, err := rt.OpenStore("late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("OpenStore on a closed job: %v, want ErrClosed", err)
	}
	if stores, _ := s.LiveStores(); stores != 0 {
		t.Fatal("a closed job registered a store")
	}
	if err := rt.Run(round); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run on a closed job: %v, want ErrClosed", err)
	}
}

// storeCounters are the session-wide, run-to-run repeatable counters of a
// Stats (wire times are measured and left out).
type storeCounters struct {
	Reads, Writes, BytesRead, BytesWritten, BytesTotal int64
	ShardVisits, Local, Remote, RemoteBytes            int64
	RemoteFrac                                         float64
	Retries, Failovers                                 int64
	CacheHits, CacheMisses                             int64
	Kind                                               dht.BackendKind
	WireReadOps, WireWriteOps, WireBytes, Reconnects   int64
}

func countersOf(st Stats) storeCounters {
	b := st.Backend
	return storeCounters{st.KVReads, st.KVWrites, st.KVBytesRead, st.KVBytesWritten, st.KVBytesTotal,
		st.KVShardVisits, st.LocalReads, st.RemoteReads, st.KVRemoteBytes, st.RemoteFrac,
		st.KVRetries, st.KVFailovers,
		st.CacheHits, st.CacheMisses, b.Kind, b.WireReadOps, b.WireWriteOps, b.WireBytes, b.Reconnects}
}

// TestStoreCountersSurviveRelease is the counter-parity check of the retired
// total: one job sequence, run with every job closed promptly and again with
// all jobs held open to the end, must report identical session-wide counters
// and identical per-phase KV bytes — on every backend, with caches, retries
// and replica failovers in play.
func TestStoreCountersSurviveRelease(t *testing.T) {
	const n, jobs = 300, 6
	faults := &dht.FaultPlan{Seed: 3, PTransient: 0.05,
		Crashes: []dht.ShardCrash{{Shard: 0, AfterReads: 10, RecoverReads: 40}}}
	cfgs := map[string]Config{
		"mem-cached":  {Machines: 2, Threads: 1, EnableCache: true, Seed: 1},
		"disk-faulty": {Machines: 1, Threads: 1, Backend: "disk", Replicate: true, Faults: faults, Retry: &dht.RetryPolicy{MaxAttempts: 6}, Seed: 1},
		"rpc-batch":   {Machines: 2, Threads: 1, Backend: "rpc", Batch: true, EnableCache: true, Seed: 1},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			run := func(hold bool) (storeCounters, [][]int64) {
				if cfg.Backend == "disk" {
					cfg.DiskDir = t.TempDir()
				}
				s := NewSession(cfg)
				defer s.Close()
				s.SetKeyspace(n)
				var held []*Job
				var phases [][]int64
				for i := 0; i < jobs; i++ {
					rt, err := s.NewJob()
					if err != nil {
						t.Fatal(err)
					}
					kv, err := runStoreJob(rt, n, uint64(i))
					if err != nil {
						t.Fatal(err)
					}
					phases = append(phases, kv)
					if hold {
						held = append(held, rt)
					} else {
						rt.Close()
					}
				}
				if stores, _ := s.LiveStores(); stores != len(held) {
					t.Fatalf("hold=%v: %d live stores, want %d", hold, stores, len(held))
				}
				probe, err := s.NewJob()
				if err != nil {
					t.Fatal(err)
				}
				counters := countersOf(probe.Stats())
				probe.Close()
				for _, rt := range held {
					rt.Close()
				}
				return counters, phases
			}
			prompt, promptPhases := run(false)
			held, heldPhases := run(true)
			if prompt != held {
				t.Fatalf("session counters differ:\n closed promptly %+v\n held open       %+v", prompt, held)
			}
			if !reflect.DeepEqual(promptPhases, heldPhases) {
				t.Fatalf("per-phase KV bytes differ:\n closed promptly %v\n held open       %v", promptPhases, heldPhases)
			}
			if prompt.Writes != jobs*n {
				t.Fatalf("KVWrites = %d, want %d", prompt.Writes, jobs*n)
			}
			if cfg.EnableCache && prompt.CacheHits != jobs*n {
				t.Fatalf("CacheHits = %d, want %d: the released caches' counts are lost", prompt.CacheHits, jobs*n)
			}
			if cfg.Faults != nil && (prompt.Retries == 0 || prompt.Failovers == 0) {
				t.Fatalf("fault plan fired no retry or no failover (%d, %d): the parity is vacuous", prompt.Retries, prompt.Failovers)
			}
		})
	}
}

// TestOneShotStatsSurviveClose pins the one-shot contract: the runtime's job
// releases its stores a moment before the private session closes, and Stats
// read afterwards still carries every counter and the configured backend.
func TestOneShotStatsSurviveClose(t *testing.T) {
	const n = 200
	for _, backend := range []string{"mem", "disk", "rpc"} {
		t.Run(backend, func(t *testing.T) {
			cfg := Config{Machines: 2, Threads: 1, Backend: backend, EnableCache: true, Seed: 1}
			if backend == "disk" {
				cfg.DiskDir = t.TempDir()
			}
			rt := New(cfg)
			rt.SetKeyspace(n)
			if _, err := runStoreJob(rt, n, 5); err != nil {
				t.Fatal(err)
			}
			before := rt.Stats()
			rt.Close()
			after := rt.Stats()
			if countersOf(before) != countersOf(after) {
				t.Fatalf("counters moved across Close:\n before %+v\n after  %+v", countersOf(before), countersOf(after))
			}
			if after.KVReads != n || after.KVWrites != n || string(after.Backend.Kind) != backend {
				t.Fatalf("after Close: %d reads, %d writes, backend %q", after.KVReads, after.KVWrites, after.Backend.Kind)
			}
			if backend == "rpc" {
				if _, ok := rt.MeasuredCostModel(); !ok {
					t.Fatal("no measured cost model from the released stores' wire counters")
				}
			}
			if _, err := rt.OpenStore("late"); !errors.Is(err, ErrClosed) {
				t.Fatalf("OpenStore after Close: %v, want ErrClosed", err)
			}
			if cfg.DiskDir != "" {
				if left, _ := os.ReadDir(cfg.DiskDir); len(left) != 0 {
					t.Fatalf("%d entries left under DiskDir", len(left))
				}
			}
		})
	}
}

// TestOneShotCloseClosesSessionOnce: Close on the job of New releases the
// job's stores, then the private session — pool and disk base — and a second
// Close does nothing.  A session job's Close leaves the session up.
func TestOneShotCloseClosesSessionOnce(t *testing.T) {
	const n = 100
	dir := t.TempDir()
	rt := New(Config{Machines: 2, Threads: 1, Backend: BackendDisk, DiskDir: dir, Seed: 1})
	rt.SetKeyspace(n)
	if _, err := runStoreJob(rt, n, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Session.OpenStore("resident"); err != nil {
		t.Fatal(err)
	}
	if len(rt.owned) != 1 || len(rt.stores) != 2 {
		t.Fatalf("before Close: job owns %d stores, session holds %d; want 1 and 2", len(rt.owned), len(rt.stores))
	}
	pool := rt.pool
	for i := 0; i < 2; i++ {
		rt.Close()
		if len(rt.owned) != 0 || len(rt.stores) != 1 {
			t.Fatalf("Close %d: job owns %d stores, session holds %d; want 0 and the resident one", i, len(rt.owned), len(rt.stores))
		}
		if !rt.Session.closed.Load() {
			t.Fatalf("Close %d left the private session open", i)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("Close %d: %d entries left under DiskDir", i, len(left))
		}
	}
	for m, f := range pool.feeds {
		f.mu.Lock()
		closed := f.closed
		f.mu.Unlock()
		if !closed {
			t.Fatalf("machine %d's pool feed is still open after Close", m)
		}
	}
	if err := rt.Run(Round{Name: "late", Items: 1, Body: func(*Ctx, int) error { return nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("round after Close: %v, want ErrClosed", err)
	}

	s := NewSession(Config{Machines: 2, Threads: 1, Seed: 1})
	defer s.Close()
	job, err := s.NewJob()
	if err != nil {
		t.Fatal(err)
	}
	job.Close()
	if s.closed.Load() {
		t.Fatal("a session job's Close closed the shared session")
	}
}
