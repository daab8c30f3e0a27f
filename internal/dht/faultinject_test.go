package dht

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// faultStore builds a store of the given kind with a fault plan and optional
// retry policy, registering cleanup.
func faultStore(t *testing.T, kind BackendKind, opts Options, plan *FaultPlan, retry *RetryPolicy) *Store {
	t.Helper()
	opts.Backend = kind
	if kind == BackendDisk && opts.DiskDir == "" {
		opts.DiskDir = t.TempDir()
	}
	opts.Faults = plan
	opts.Retry = retry
	s, err := NewStore("d0", opts)
	if err != nil {
		t.Fatalf("NewStore(%s): %v", kind, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// runFaultWorkload applies a fixed mixed workload and returns every read-back
// value, failing the test on any error.
func runFaultWorkload(t *testing.T, s *Store) map[uint64][]byte {
	t.Helper()
	const n = 256
	for k := uint64(0); k < n; k++ {
		if err := s.Put(k, []byte{byte(k), byte(k >> 4)}); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	pairs := make([]Pair, 0, n/2)
	for k := uint64(0); k < n/2; k++ {
		pairs = append(pairs, Pair{Key: n + k, Value: []byte{byte(k)}})
	}
	if _, err := s.BatchPut(pairs); err != nil {
		t.Fatalf("batch put: %v", err)
	}
	for k := uint64(0); k < 8; k++ {
		if err := s.Put(2*n+k, []byte{byte(k)}); err != nil {
			t.Fatalf("put %d: %v", 2*n+k, err)
		}
	}
	out := make(map[uint64][]byte)
	keys := make([]uint64, 0, n+n/2+8)
	for k := uint64(0); k < n+n/2; k++ {
		keys = append(keys, k)
	}
	for k := uint64(0); k < 8; k++ {
		keys = append(keys, 2*n+k)
	}
	vals, oks, _, err := s.BatchGet(keys)
	if err != nil {
		t.Fatalf("batch get: %v", err)
	}
	for i, k := range keys {
		if !oks[i] {
			t.Fatalf("key %d missing", k)
		}
		out[k] = append([]byte(nil), vals[i]...)
	}
	// Single-key reads agree (and exercise the non-batched read path).
	for k := uint64(0); k < 32; k++ {
		v, ok, err := s.Get(k)
		if err != nil || !ok || !bytes.Equal(v, out[k]) {
			t.Fatalf("Get(%d) = %q,%v,%v disagrees with batch %q", k, v, ok, err, out[k])
		}
	}
	return out
}

// chaosTestPlan is a dense plan: every fault class fires often enough that a
// 256-key workload is guaranteed to trip each of them.
func chaosTestPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		Seed:       seed,
		PTransient: 0.2,
		Crashes:    []ShardCrash{{Shard: 1, AfterReads: 10, RecoverReads: 5}},
		TornTail:   true,
		PDrop:      0.2,
	}
}

func chaosTestRetry() *RetryPolicy { return &RetryPolicy{MaxAttempts: 8} }

// TestFaultPlanByteIdenticalUnderRetry is the store half of the chaos
// equivalence claim: a retrying store under a dense fault plan returns
// byte-identical contents to a clean store, on every backend, while actually
// absorbing faults (Retries > 0).
func TestFaultPlanByteIdenticalUnderRetry(t *testing.T) {
	clean := mustStore("d0", Options{Shards: 4, Replicate: true})
	defer clean.Close()
	want := runFaultWorkload(t, clean)
	for _, kind := range BackendKinds() {
		t.Run(string(kind), func(t *testing.T) {
			s := faultStore(t, kind, Options{Shards: 4, Replicate: true},
				chaosTestPlan(42), chaosTestRetry())
			got := runFaultWorkload(t, s)
			if len(got) != len(want) {
				t.Fatalf("key count %d, want %d", len(got), len(want))
			}
			for k, w := range want {
				if !bytes.Equal(got[k], w) {
					t.Fatalf("key %d: %q, clean store has %q", k, got[k], w)
				}
			}
			st := s.Stats()
			if st.Retries == 0 {
				t.Fatal("dense fault plan absorbed no retries")
			}
			if st.Failovers == 0 {
				t.Fatal("crash window produced no replica failovers")
			}
		})
	}
}

// TestFaultPlanDeterministic: the same seed produces the same set of injected
// failures across two fresh stores (no retry policy, so every injection
// surfaces to the caller).
func TestFaultPlanDeterministic(t *testing.T) {
	run := func() []string {
		s := mustStore("d0", Options{Shards: 4, Faults: &FaultPlan{Seed: 7, PTransient: 0.3}})
		defer s.Close()
		var errs []string
		for k := uint64(0); k < 200; k++ {
			if err := s.Put(k, []byte{byte(k)}); err != nil {
				errs = append(errs, fmt.Sprintf("put:%d", k))
			}
		}
		for k := uint64(0); k < 200; k++ {
			if _, _, err := s.Get(k); err != nil {
				errs = append(errs, fmt.Sprintf("get:%d", k))
			}
		}
		return errs
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("plan injected nothing")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("two runs disagree:\n%v\n%v", a, b)
	}
}

// TestFaultPlanFirstOccurrenceOnly: an identity fails its first occurrence
// and succeeds afterwards, which is what makes a single retry sufficient.
func TestFaultPlanFirstOccurrenceOnly(t *testing.T) {
	s := mustStore("d0", Options{Shards: 2, Faults: &FaultPlan{Seed: 1, PTransient: 1}})
	defer s.Close()
	err := s.Put(5, []byte("x"))
	if !errors.Is(err, errInjectedTransient) {
		t.Fatalf("first put: %v, want injected transient", err)
	}
	if err := s.Put(5, []byte("x")); err != nil {
		t.Fatalf("second put: %v, want success (occurrence consumed)", err)
	}
	_, _, err = s.Get(5)
	if !errors.Is(err, errInjectedTransient) {
		t.Fatalf("first get: %v, want injected transient (reads draw separately)", err)
	}
	v, ok, err := s.Get(5)
	if err != nil || !ok || string(v) != "x" {
		t.Fatalf("second get: %q %v %v", v, ok, err)
	}
}

// TestRetryAbsorbsTransientsExactlyOnce: a retried write applies once (the
// injection fires before the engine applies the op), visible in the disk
// engine's log: one record per Put, however many attempts it took.
func TestRetryAbsorbsTransientsExactlyOnce(t *testing.T) {
	s := storeForBackend(t, BackendDisk, Options{
		Shards: 2,
		Faults: &FaultPlan{Seed: 1, PTransient: 1},
		Retry:  &RetryPolicy{MaxAttempts: 3},
	})
	if err := s.Put(9, []byte("ab")); err != nil {
		t.Fatalf("put under retry: %v", err)
	}
	if err := s.Put(10, []byte("c")); err != nil {
		t.Fatalf("second put: %v", err)
	}
	if v, ok, err := s.Get(9); err != nil || !ok || string(v) != "ab" {
		t.Fatalf("value after a retried put: %q %v %v", v, ok, err)
	}
	if got, want := s.BackendStats().DiskBytes, int64(2*diskHeader+3); got != want {
		t.Fatalf("DiskBytes = %d after two retried puts, want %d (each applied exactly once)", got, want)
	}
	st := s.Stats()
	if st.Retries == 0 || st.Writes != 2 {
		t.Fatalf("stats %+v: want retries recorded and 2 writes", st)
	}
}

// TestFatalFaultsAreNotRetried: PFatal escapes the retry loop immediately —
// that is the class the runtime recovers from at the sub-round level.
func TestFatalFaultsAreNotRetried(t *testing.T) {
	s := mustStore("d0", Options{
		Shards: 2,
		Faults: &FaultPlan{Seed: 3, PFatal: 1},
		Retry:  &RetryPolicy{MaxAttempts: 10},
	})
	defer s.Close()
	if err := s.Put(4, []byte("x")); err != nil {
		t.Fatalf("writes must not draw fatal faults: %v", err)
	}
	_, _, err := s.Get(4)
	if !errors.Is(err, errInjectedFatal) {
		t.Fatalf("get: %v, want injected fatal", err)
	}
	if st := s.Stats(); st.Retries != 0 {
		t.Fatalf("fatal fault consumed %d retries, want 0", st.Retries)
	}
	// The identity's occurrence was consumed, so a sub-round re-execution
	// (which simply re-reads) succeeds.
	if v, _, err := s.Get(4); err != nil || string(v) != "x" {
		t.Fatalf("re-read after fatal: %q %v", v, err)
	}
}

// TestShardCrashSchedule pins the read-clock crash window: reads before
// AfterReads succeed, the window returns ErrUnavailable (unreplicated), and
// the shard recovers after RecoverReads further read visits.
func TestShardCrashSchedule(t *testing.T) {
	plan := &FaultPlan{Seed: 1, Crashes: []ShardCrash{{Shard: 1, AfterReads: 3, RecoverReads: 2}}}
	s := mustStore("d0", Options{Shards: 2, Faults: plan})
	defer s.Close()
	key := keysOnShard(s, 1, 1)[0]
	if err := s.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		_, ok, err := s.Get(key)
		switch {
		case i < 3:
			if err != nil || !ok {
				t.Fatalf("read %d before crash: ok=%v err=%v", i, ok, err)
			}
		case i < 5:
			if !errors.Is(err, ErrUnavailable) {
				t.Fatalf("read %d in crash window: %v, want ErrUnavailable", i, err)
			}
		default:
			if err != nil || !ok {
				t.Fatalf("read %d after recovery: ok=%v err=%v", i, ok, err)
			}
		}
	}
}

// TestRetryDrainsCrashWindow: failed reads advance the injector's read clock,
// so a retrying store rides out the outage without the caller noticing.
func TestRetryDrainsCrashWindow(t *testing.T) {
	plan := &FaultPlan{Seed: 1, Crashes: []ShardCrash{{Shard: 1, AfterReads: 1, RecoverReads: 3}}}
	s := mustStore("d0", Options{Shards: 2, Faults: plan, Retry: &RetryPolicy{MaxAttempts: 10}})
	defer s.Close()
	key := keysOnShard(s, 1, 1)[0]
	if err := s.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get(key)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("get through crash window: %q %v %v", v, ok, err)
	}
	if st := s.Stats(); st.Retries < 3 {
		t.Fatalf("Retries = %d, want >= 3 (the reads that drained the window)", st.Retries)
	}
}

// TestCrashWindowFailsOverWhenReplicated: on a replicated store the crash
// window is served by the replica and counted as failovers — no retry needed,
// values identical.
func TestCrashWindowFailsOverWhenReplicated(t *testing.T) {
	plan := &FaultPlan{Seed: 1, Crashes: []ShardCrash{{Shard: 1, AfterReads: 1, RecoverReads: 100}}}
	s := mustStore("d0", Options{Shards: 2, Replicate: true, Faults: plan})
	defer s.Close()
	key := keysOnShard(s, 1, 1)[0]
	if err := s.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get(key)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("get in crash window: %q %v %v", v, ok, err)
	}
	if fo := s.Stats().Failovers; fo != 1 {
		t.Fatalf("Failovers = %d, want 1", fo)
	}
}

// TestRetryStopsAtMaxAttempts: an op that fails with a retryable error on
// every attempt is tried MaxAttempts times in all (once below 2, never
// without end) and then surfaces the error.  Reads go to a failed,
// unreplicated shard that never recovers.  Writes reach a down shard
// regardless, so the write rows put to a closed disk or rpc store, which is
// not retryable: they are tried once whatever MaxAttempts says.  Each op
// runs behind a timeout, so a loop that does not stop fails the test.
func TestRetryStopsAtMaxAttempts(t *testing.T) {
	downShard := func(t *testing.T, p *RetryPolicy) (*Store, uint64) {
		s := storeForBackend(t, BackendMem, Options{Shards: 2, Retry: p})
		key := keysOnShard(s, 1, 1)[0]
		if err := s.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		s.FailShard(1)
		return s, key
	}
	ops := []struct {
		name string
		want error
		run  func(t *testing.T, p *RetryPolicy) (*Store, func() error)
	}{
		{"Get", ErrUnavailable, func(t *testing.T, p *RetryPolicy) (*Store, func() error) {
			s, key := downShard(t, p)
			return s, func() error { _, _, err := s.Get(key); return err }
		}},
		{"BatchGet", ErrUnavailable, func(t *testing.T, p *RetryPolicy) (*Store, func() error) {
			s, key := downShard(t, p)
			return s, func() error { _, _, _, err := s.BatchGet([]uint64{key}); return err }
		}},
		{"Put", errDiskClosed, func(t *testing.T, p *RetryPolicy) (*Store, func() error) {
			s := storeForBackend(t, BackendDisk, Options{Shards: 2, Retry: p})
			s.Close()
			return s, func() error { return s.Put(1, []byte("v")) }
		}},
		{"Put/rpc", errRPCClosed, func(t *testing.T, p *RetryPolicy) (*Store, func() error) {
			s := storeForBackend(t, BackendRPC, Options{Shards: 2, Retry: p})
			s.Close()
			return s, func() error { return s.Put(1, []byte("v")) }
		}},
	}
	for _, op := range ops {
		for _, attempts := range []int{0, 1, 5} {
			t.Run(fmt.Sprintf("%s/max=%d", op.name, attempts), func(t *testing.T) {
				s, run := op.run(t, &RetryPolicy{MaxAttempts: attempts})
				done := make(chan error, 1)
				go func() { done <- run() }()
				select {
				case err := <-done:
					if !errors.Is(err, op.want) {
						t.Fatalf("err = %v, want %v", err, op.want)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("still retrying after 5s")
				}
				want := int64(max(attempts-1, 0))
				if !retryable(op.want) {
					want = 0
				}
				if got := s.Stats().Retries; got != want {
					t.Fatalf("Retries = %d, want %d", got, want)
				}
			})
		}
	}
}

// TestTornTailFreezeAfterClose: freezing a closed disk store under a
// TornTail plan finds no log to tear and reports errDiskClosed instead of
// dereferencing the released table.
func TestTornTailFreezeAfterClose(t *testing.T) {
	s, err := NewStore("d0", Options{Shards: 2, Backend: BackendDisk, DiskDir: t.TempDir(),
		Faults: &FaultPlan{Seed: 1, TornTail: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Freeze(); !errors.Is(err, errDiskClosed) {
		t.Fatalf("Freeze after Close = %v, want errDiskClosed", err)
	}
}

// TestTornTailRecoveryProperty: across fault seeds, a disk store whose logs
// end in an injected torn record (a crash mid-write at the Freeze durability
// point) reopens to exactly the fsynced contents.
func TestTornTailRecoveryProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Shards: 4, Backend: BackendDisk, DiskDir: dir, Replicate: seed%2 == 0}
			withFaults := opts
			withFaults.Faults = &FaultPlan{Seed: seed, TornTail: true}
			s, err := NewStore("d0", withFaults)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[uint64][]byte)
			for k := uint64(0); k < 100; k++ {
				v := []byte{byte(k), byte(seed), byte(k >> 3)}
				if err := s.Put(k, v); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
			if err := s.Freeze(); err != nil {
				t.Fatalf("freeze (torn-tail injection point): %v", err)
			}
			// The torn tails are invisible to live reads: they sit past the
			// tracked size and the extent index never references them.
			for k, w := range want {
				v, ok, err := s.Get(k)
				if err != nil || !ok || !bytes.Equal(v, w) {
					t.Fatalf("live read %d after torn freeze: %q %v %v", k, v, ok, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Reopen plain: replay must truncate the torn record and keep
			// every complete one.
			r, err := NewStore("d0", opts)
			if err != nil {
				t.Fatalf("reopen after torn tails: %v", err)
			}
			defer r.Close()
			if got := r.Len(); got != len(want) {
				t.Fatalf("Len after reopen = %d, want %d", got, len(want))
			}
			for k, w := range want {
				v, ok, err := r.Get(k)
				if err != nil || !ok || !bytes.Equal(v, w) {
					t.Fatalf("key %d after reopen: %q %v %v, want %q", k, v, ok, err, w)
				}
			}
		})
	}
}

// TestRPCDroppedConnectionsReconnect: with every call's connection dropped
// pre-call, the transport re-dials and re-sends, so the workload still
// completes; BackendStats.Reconnects counts the recoveries.
func TestRPCDroppedConnectionsReconnect(t *testing.T) {
	s := faultStore(t, BackendRPC, Options{Shards: 4}, &FaultPlan{Seed: 9, PDrop: 1}, nil)
	for k := uint64(0); k < 32; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatalf("put %d over dropping transport: %v", k, err)
		}
	}
	keys := make([]uint64, 32)
	for i := range keys {
		keys[i] = uint64(i)
	}
	vals, oks, _, err := s.BatchGet(keys)
	if err != nil {
		t.Fatalf("batch get over dropping transport: %v", err)
	}
	for i, k := range keys {
		if !oks[i] || vals[i][0] != byte(k) {
			t.Fatalf("key %d: %q %v", k, vals[i], oks[i])
		}
	}
	bs := s.BackendStats()
	if bs.Reconnects == 0 {
		t.Fatal("no reconnects recorded")
	}
}

// TestRPCCloseLeaksNoGoroutines: Close drains the accept loop and every
// per-connection server goroutine; after a settle window the goroutine count
// returns to baseline.
func TestRPCCloseLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		s, err := NewStore("d0", Options{Shards: 4, Backend: BackendRPC,
			Faults: &FaultPlan{Seed: int64(i), PDrop: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 16; k++ {
			if err := s.Put(k, []byte{byte(k)}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d > baseline %d after close; stacks:\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultPlanErrorsNameTheOp: injected errors identify the op, shard and
// key, so chaos-run logs are actionable.
func TestFaultPlanErrorsNameTheOp(t *testing.T) {
	s := mustStore("d0", Options{Shards: 2, Faults: &FaultPlan{Seed: 1, PTransient: 1}})
	defer s.Close()
	err := s.Put(5, []byte("x"))
	if err == nil {
		t.Fatal("expected injected failure")
	}
	for _, want := range []string{"write", "shard", "key 5"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q should mention %q", err, want)
		}
	}
}
