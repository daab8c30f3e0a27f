package bench

import (
	"testing"

	"ampcgraph/internal/ampc"
)

// TestChaosPreservesAllFiveAlgorithms is the acceptance property of the
// fault-tolerance stack: every core algorithm, on every storage backend and
// under both placement policies, must produce output byte-identical to a
// fault-free run — and valid against the internal/seq oracles — while the
// pinned fault schedule (ChaosFaultPlan) injects transient errors, stuck
// reads, shard crash windows, torn disk tails and rpc connection drops.
// The store-level retry tier, replica failover and the runtime's
// sub-round re-execution together must absorb every fault — and
// the suite asserts each of those tiers actually fired, so a plan that
// quietly stops injecting cannot pass vacuously.
func TestChaosPreservesAllFiveAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five algorithms once per backend and placement, clean and under chaos")
	}
	base := ampc.Config{Machines: 4, Threads: 2, EnableCache: true, Batch: true, Seed: 1}
	in := okInputs(base.Seed, 2_500)

	refCfg := base
	refCfg.Placement = ampc.PlacementHash
	refCfg.Backend = ampc.BackendMem
	clean := mustRun(t, in, refCfg)
	mustMatch(t, in, clean, clean, "fault-free reference")

	// Recovery-tier counters aggregated over the whole matrix: every tier
	// must fire somewhere in the suite.
	var fired ampc.Stats
	for _, backend := range allBackends {
		for _, placement := range []string{ampc.PlacementHash, ampc.PlacementWeighted} {
			t.Run(backend+"/"+placement, func(t *testing.T) {
				cfg := base
				cfg.Backend = backend
				cfg.Placement = placement
				cfg.Replicate = true
				if backend == ampc.BackendDisk {
					cfg.DiskDir = t.TempDir()
				}
				chaos, err := in.run(chaosConfig(cfg))
				if err != nil {
					t.Fatalf("chaotic run failed past the fault budget: %v", err)
				}
				mustMatch(t, in, chaos, clean, "five algorithms under chaos")
				tiers := recoveryTotals(chaos)
				fired.KVRetries += tiers.KVRetries
				fired.KVFailovers += tiers.KVFailovers
				fired.SubroundRetries += tiers.SubroundRetries
			})
		}
	}

	if fired.KVRetries == 0 {
		t.Error("no store-level retries across the suite: the plan no longer injects transients")
	}
	if fired.KVFailovers == 0 {
		t.Error("no replica failovers across the suite: the crash windows no longer fire")
	}
	if fired.SubroundRetries == 0 {
		t.Error("no sub-round re-executions across the suite: the plan no longer injects fatal faults")
	}
}

// TestChaosSmokeGatesHold runs the chaos smoke once and asserts the
// invariants benchcheck will gate on: identical and valid outputs, zero
// failed runs, every recovery tier exercised in every pass, and the ceiling
// above the measured overhead.
func TestChaosSmokeGatesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the five-algorithm chaos suite four times")
	}
	rows := smokeGatesHold(t, "chaos", Options{Seed: 1, Machines: 4, Threads: 2})
	if v := gateValue(t, rows, "OK", "overhead_mean_pct"); v.Bound <= v.Value {
		t.Errorf("gate ceiling %.2f not above the overhead mean %.2f", v.Bound, v.Value)
	}
}
