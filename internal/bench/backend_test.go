package bench

import (
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/gen"
)

// TestBackendsPreserveAllFiveAlgorithms is the acceptance property of the
// storage-backend seam: every core algorithm must produce byte-identical,
// oracle-valid output whether the shards live in in-memory maps, in
// log-structured files on disk, or behind a loopback socket transport — and
// that must hold under both hash and degree-weighted placement.  The backend
// only stores bytes; routing, accounting and algorithm logic live above the
// seam, so any divergence is a bug in a backend.
func TestBackendsPreserveAllFiveAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five algorithms once per backend and placement")
	}
	base := ampc.Config{Machines: 4, Threads: 2, EnableCache: true, Seed: 1}
	in := okInputs(base.Seed, 2_500)

	refCfg := base
	refCfg.Placement = ampc.PlacementHash
	refCfg.Backend = ampc.BackendMem
	ref := mustRun(t, in, refCfg)
	mustMatch(t, in, ref, ref, "mem/hash reference")

	for _, backend := range allBackends {
		for _, placement := range []string{ampc.PlacementHash, ampc.PlacementWeighted} {
			if backend == ampc.BackendMem && placement == ampc.PlacementHash {
				continue // this is the reference configuration
			}
			t.Run(backend+"/"+placement, func(t *testing.T) {
				cfg := base
				cfg.Backend = backend
				cfg.Placement = placement
				if backend == ampc.BackendDisk {
					cfg.DiskDir = t.TempDir()
				}
				mustMatch(t, in, mustRun(t, in, cfg), ref, "five algorithms")
			})
		}
	}
}

// TestDiskBackendCompletesPastMemoryBudget is the spill acceptance test: a
// run whose store footprint exceeds a configured memory budget must still
// complete on the disk backend, with the in-memory index staying under the
// budget while the full data set lives in the shard log files.
func TestDiskBackendCompletesPastMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs MIS on the OK stand-in")
	}
	const memoryBudget = 1 << 19 // 512 KiB resident budget for the shard data
	cfg := ampc.Config{
		Machines: 4, Threads: 2, EnableCache: true, Seed: 1,
		Backend: ampc.BackendDisk, DiskDir: t.TempDir(),
	}
	g := gen.Datasets()[0].Build(2, cfg.Seed)
	res, err := mis.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs := res.Stats.Backend
	if bs.Kind != "disk" {
		t.Fatalf("backend kind = %q, want disk", bs.Kind)
	}
	if bs.DiskBytes <= memoryBudget {
		t.Fatalf("DiskBytes = %d, want a footprint above the %d-byte budget (grow the input if the stand-in shrank)",
			bs.DiskBytes, memoryBudget)
	}
	if bs.ResidentBytes >= memoryBudget {
		t.Fatalf("ResidentBytes = %d, want the in-memory index to stay under the %d-byte budget",
			bs.ResidentBytes, memoryBudget)
	}
	if bs.ResidentBytes >= bs.DiskBytes {
		t.Fatalf("ResidentBytes %d >= DiskBytes %d: the disk backend is not spilling", bs.ResidentBytes, bs.DiskBytes)
	}
}
