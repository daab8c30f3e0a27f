package bench

import (
	"fmt"
	"testing"

	"ampcgraph/internal/ampc"
)

// TestPlacementPreservesAllFiveAlgorithms is the acceptance property of the
// placement layer: every core algorithm must produce byte-identical,
// oracle-valid output under hash, range-owner and degree-weighted ownership
// placement, across seeds and both the single-key and batched pipelines.
// Placement only decides which shard holds each key and which machine does
// which work, so any divergence is a bug.
func TestPlacementPreservesAllFiveAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five algorithms three times per configuration")
	}
	configs := []ampc.Config{
		{Machines: 8, Threads: 4, EnableCache: true, Seed: 1},
		{Machines: 3, Threads: 2, EnableCache: true, Batch: true, Seed: 2},
		{Machines: 5, Threads: 1, Seed: 3},
	}
	for _, base := range configs {
		in := okInputs(base.Seed, 2_000+500*int(base.Seed))
		hash := base
		hash.Placement = ampc.PlacementHash
		ref := mustRun(t, in, hash)
		mustMatch(t, in, ref, ref, fmt.Sprintf("cfg %+v: hash reference", base))
		for _, placement := range []string{ampc.PlacementOwnerAffine, ampc.PlacementWeighted} {
			cfg := base
			cfg.Placement = placement
			mustMatch(t, in, mustRun(t, in, cfg), ref, fmt.Sprintf("cfg %+v under %s placement", base, placement))
		}
	}
}

// TestLocalityComparison guards the acceptance bar of the placement layer:
// the owner-affine placement must reduce remote reads on the Table 2
// stand-ins, with results identical to hash placement.
func TestLocalityComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("locality comparison runs every algorithm twice")
	}
	// One thread per machine keeps the read counts deterministic (no racy
	// cache fills), so the hash-vs-owner comparison is exact.
	rows, rep, err := LocalityComparison(Options{Datasets: []string{"OK"}, Seed: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d, want MIS+MM+MSF", len(rows))
	}
	for _, row := range rows {
		if !row.Identical {
			t.Errorf("%s/%s: results differ across placements", row.Graph, row.Algo)
		}
		if row.RemoteReadsOwner >= row.RemoteReadsHash {
			t.Errorf("%s/%s: owner placement did not reduce remote reads (%d -> %d)",
				row.Graph, row.Algo, row.RemoteReadsHash, row.RemoteReadsOwner)
		}
		if row.LocalReadsOwner == 0 {
			t.Errorf("%s/%s: no local reads under owner placement", row.Graph, row.Algo)
		}
		if row.RemoteFracOwner <= 0 || row.RemoteFracOwner >= 1 {
			t.Errorf("%s/%s: remote fraction %v not in (0,1)", row.Graph, row.Algo, row.RemoteFracOwner)
		}
		if row.SimOwner > row.SimHash {
			t.Errorf("%s/%s: owner placement slowed the modeled time (%v -> %v)",
				row.Graph, row.Algo, row.SimHash, row.SimOwner)
		}
	}
	if len(rep.Rows) != len(rows) {
		t.Fatalf("report rows %d != data rows %d", len(rep.Rows), len(rows))
	}
}
