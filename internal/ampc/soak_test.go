package ampc_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/core/connectivity"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/seq"
)

// The soak test: thousands of short store-opening jobs (and a few
// connectivity queries, the heaviest store-opening job there is) against one
// warm session from two closed-loop clients.  What a session holds must be a
// function of what is resident and in flight, not of how many jobs it has
// served: after every wave the live stores, caches and fences are back to the
// shared-only baseline, and resident bytes, goroutines, open files, the heap
// and the disk directory are flat.

const (
	soakKeys    = 256
	soakValue   = 64
	soakWaves   = 4
	soakClients = 2
	// soakHeapMargin bounds heap-in-use growth after the warm-up wave.  Stores
	// held to Session.Close cost ~65 KB per short job: ~40 MB per wave at the
	// full count (measured at the parent of the change that added release).
	soakHeapMargin = 8 << 20
)

func soakValueOf(key, salt uint64) []byte {
	v := make([]byte, soakValue)
	binary.LittleEndian.PutUint64(v, key*31+salt)
	return v
}

// soakJob is one short query: fill a private table, verify it, and read the
// shared table through the per-machine caches.
func soakJob(s *ampc.Session, shared *dht.Store, salt uint64) error {
	rt, err := s.NewJob()
	if err != nil {
		return err
	}
	defer rt.Close()
	own, err := rt.OpenStore("own")
	if err != nil {
		return err
	}
	verify := func(store *dht.Store, salt uint64) ampc.Round {
		return ampc.Round{
			Name:        "verify-" + store.Name(),
			Items:       soakKeys,
			Read:        store,
			Partitioner: rt.OwnerPartitioner(soakKeys),
			Body: func(c *ampc.Ctx, item int) error {
				v, ok, err := c.Lookup(uint64(item))
				if err != nil || !ok {
					return fmt.Errorf("%s key %d: ok=%v err=%v", store.Name(), item, ok, err)
				}
				if got, want := binary.LittleEndian.Uint64(v), uint64(item)*31+salt; got != want {
					return fmt.Errorf("%s key %d: value %d, want %d", store.Name(), item, got, want)
				}
				return nil
			},
		}
	}
	write := ampc.Round{
		Name:        "write",
		Items:       soakKeys,
		Writes:      []ampc.Access{{Store: own}},
		Partitioner: rt.OwnerPartitioner(soakKeys),
		Body: func(c *ampc.Ctx, item int) error {
			return c.Write(own, uint64(item), soakValueOf(uint64(item), salt))
		},
	}
	return rt.RunPipeline([]ampc.Round{write, verify(own, salt), verify(shared, 0)})
}

// soakState is what must not depend on the number of jobs served.
type soakState struct {
	stores, caches, fences int
	resident               int64
	goroutines, files      int
	heap                   uint64
	diskDirs               int
}

func openFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0 // not Linux: the check degrades to 0 == 0
	}
	return len(fds)
}

func observe(t *testing.T, s *ampc.Session) soakState {
	t.Helper()
	var st soakState
	st.stores, st.caches, st.fences = s.LiveStores()
	probe, err := s.NewJob()
	if err != nil {
		t.Fatal(err)
	}
	st.resident = probe.Stats().Backend.ResidentBytes
	probe.Close()
	if base := s.DiskBase(); base != "" {
		dirs, err := os.ReadDir(base)
		if err != nil {
			t.Fatal(err)
		}
		st.diskDirs = len(dirs)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.heap = ms.HeapInuse
	st.goroutines, st.files = runtime.NumGoroutine(), openFiles()
	return st
}

// settled waits for goroutines that have already been told to exit (client
// goroutines past their WaitGroup, rpc connection servers past Close) to be
// gone, then reports whether the counts are back at or under the baseline.
func settled(base soakState) bool {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base.goroutines || openFiles() > base.files {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func soak(t *testing.T, cfg ampc.Config, jobs int) {
	g := gen.PreferentialAttachment(300, 3, 7)
	want := seq.ConnectedComponents(g)
	s := ampc.NewSession(cfg)
	s.SetKeyspace(soakKeys)
	shared, err := s.OpenSharedStore("shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenSharedStore("shared-idle"); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < soakKeys; k++ {
		if err := shared.Put(k, soakValueOf(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := shared.Freeze(); err != nil {
		t.Fatal(err)
	}

	perClient := jobs / (soakWaves * soakClients)
	wave := func(w int) {
		var wg sync.WaitGroup
		for c := 0; c < soakClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					if err := soakJob(s, shared, uint64(w*1_000_000+c*100_000+i)); err != nil {
						t.Errorf("wave %d client %d job %d: %v", w, c, i, err)
						return
					}
				}
				rt, err := s.NewJob()
				if err != nil {
					t.Error(err)
					return
				}
				defer rt.Close()
				res, err := connectivity.RunOn(rt, g)
				if err != nil {
					t.Errorf("wave %d client %d connectivity: %v", w, c, err)
					return
				}
				if !slices.Equal(res.Components, want) {
					t.Errorf("wave %d client %d: connectivity labels differ from the sequential oracle", w, c)
				}
			}(c)
		}
		wg.Wait()
	}

	// The first wave spawns the pool and warms the allocator; it is the
	// baseline the later ones must return to.
	wave(0)
	base := observe(t, s)
	if base.stores != 2 || base.caches > 2 || base.fences > 2 {
		t.Fatalf("after the warm-up wave: %d stores, %d cache sets, %d fences; want the 2 shared stores only",
			base.stores, base.caches, base.fences)
	}
	if cfg.Backend == "disk" && base.diskDirs != 2 {
		t.Fatalf("%d directories under the disk base, want the 2 shared stores'", base.diskDirs)
	}
	for w := 1; w < soakWaves && !t.Failed(); w++ {
		wave(w)
		if !settled(base) {
			t.Fatalf("wave %d: %d goroutines / %d open files, baseline %d / %d",
				w, runtime.NumGoroutine(), openFiles(), base.goroutines, base.files)
		}
		got := observe(t, s)
		if got.stores != base.stores || got.caches != base.caches || got.fences != base.fences ||
			got.resident != base.resident || got.diskDirs != base.diskDirs {
			t.Fatalf("wave %d left state behind:\n got  %+v\n base %+v", w, got, base)
		}
		if got.heap > base.heap+soakHeapMargin {
			t.Fatalf("wave %d: heap in use %d MB, baseline %d MB", w, got.heap>>20, base.heap>>20)
		}
	}
	s.Close()
	if cfg.DiskDir != "" {
		if left, _ := os.ReadDir(cfg.DiskDir); len(left) != 0 {
			t.Fatalf("%d entries left under DiskDir after Session.Close", len(left))
		}
	}
}

// TestSoakJobStoreLifetime runs the soak on the mem and disk engines at the
// full count (a tenth under -short, for the race detector) and a shorter one
// over rpc, where a leaked store is a leaked listener: its accept loop and
// connection goroutines, its file descriptors and — on hosts without loopback
// TCP — its socket directory.
func TestSoakJobStoreLifetime(t *testing.T) {
	jobs := map[string]int{"mem": 2400, "disk": 2000, "rpc": 240}
	for _, backend := range []string{"mem", "disk", "rpc"} {
		t.Run(backend, func(t *testing.T) {
			cfg := ampc.Config{Machines: 2, Threads: 1, Shards: 4, Backend: backend,
				EnableCache: true, Pipeline: true, Placement: ampc.PlacementWeighted, Seed: 1}
			if backend == "disk" {
				cfg.DiskDir = t.TempDir()
			}
			n := jobs[backend]
			if testing.Short() {
				n /= 10
			}
			sockets := func() int {
				dirs, _ := filepath.Glob(filepath.Join(os.TempDir(), "dht-rpc-*"))
				return len(dirs)
			}
			before := sockets()
			soak(t, cfg, n)
			if after := sockets(); after > before {
				t.Fatalf("%d rpc socket directories left behind", after-before)
			}
		})
	}
}
