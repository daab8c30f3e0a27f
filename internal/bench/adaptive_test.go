package bench

import (
	"fmt"
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/core/msf"
)

// msfSegmentedRun composes the MSF pipeline with a preceding MIS segment on
// one runtime: segment one runs the MIS rounds, then (with adaptive set) the
// ownership table is rebalanced from the observed load, and the MSF pipeline
// runs on the adapted runtime — its stores and partitioners answer from the
// migrated table.  This is the composition seam msf.RunOn exists for, here
// exercising a rebalance between the composed phases.
func msfSegmentedRun(t *testing.T, in *inputs, cfg ampc.Config, adaptive bool) outputs {
	t.Helper()
	rt := ampc.New(cfg)
	defer rt.Close()
	misPlan, err := mis.NewPlan(rt, in.g)
	if err != nil {
		t.Fatal(err)
	}
	if err := runRounds(rt, misPlan.Rounds()); err != nil {
		t.Fatal(err)
	}
	if adaptive {
		if _, err := rt.Rebalance(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := msf.RunOn(rt, in.msfInput())
	if err != nil {
		t.Fatal(err)
	}
	return outputs{Forest: res.Edges}
}

// TestAdaptiveOwnershipPreservesAlgorithms extends the storage-backend
// equivalence suite with the adaptive-ownership axis: adaptive on/off x
// {hash, weighted} placement x {mem, disk, rpc} backend must all produce
// byte-identical, oracle-valid outputs.  The two-segment MIS+MM workload
// rebalances between its segments (the tentpole path), the MIS+MSF
// composition rebalances between composed phases, and connectivity and cycle
// — which run as a single segment with no rebalance seam — pin the combo's
// backend and placement exactly as the backend suite does.  Under hash
// placement Rebalance must be a no-op (there is no ownership table to
// adapt); under weighted placement the adaptive arm must actually move shard
// data.
func TestAdaptiveOwnershipPreservesAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the segmented workloads across twelve backend/placement/adaptive combos")
	}
	base := ampc.Config{Machines: 4, Threads: 2, EnableCache: true, Seed: 1}
	in := okInputs(base.Seed, 2_500)

	refCfg := base
	refCfg.Placement = ampc.PlacementHash
	refCfg.Backend = ampc.BackendMem

	// run assembles the five outputs of one combo: MIS+MM from the fused
	// two-segment run, MSF from the MIS+MSF composition, CC and CY one-shot.
	run := func(t *testing.T, cfg ampc.Config, adaptive bool) (outputs, ampc.Stats) {
		t.Helper()
		_, out, st, err := adaptiveFusedRun(in.g, cfg, adaptive)
		if err != nil {
			t.Fatal(err)
		}
		out.Forest = msfSegmentedRun(t, in, cfg, adaptive).Forest
		rest := mustRun(t, in, cfg, "CC", "CY")
		out.Labels, out.Cycle = rest.Labels, rest.Cycle
		return out, st
	}
	ref, _ := run(t, refCfg, false)
	mustMatch(t, in, ref, ref, "mem/hash/static reference")

	for _, backend := range allBackends {
		for _, placement := range []string{ampc.PlacementHash, ampc.PlacementWeighted} {
			for _, adaptive := range []bool{false, true} {
				if backend == ampc.BackendMem && placement == ampc.PlacementHash && !adaptive {
					continue // this is the reference configuration
				}
				name := fmt.Sprintf("%s/%s/adaptive=%v", backend, placement, adaptive)
				t.Run(name, func(t *testing.T) {
					cfg := base
					cfg.Backend = backend
					cfg.Placement = placement
					if backend == ampc.BackendDisk {
						cfg.DiskDir = t.TempDir()
					}
					got, st := run(t, cfg, adaptive)
					mustMatch(t, in, got, ref, "segmented workloads")
					if adaptive && placement == ampc.PlacementWeighted {
						if st.Rebalances == 0 || st.MigratedKeys == 0 {
							t.Errorf("adaptive weighted run moved nothing (rebalances=%d keys=%d); the rebalance seam is dead",
								st.Rebalances, st.MigratedKeys)
						}
					} else if st.Rebalances != 0 {
						t.Errorf("rebalances = %d, want 0 (no-op outside the adaptive weighted arm)", st.Rebalances)
					}
				})
			}
		}
	}
}
