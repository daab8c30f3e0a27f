package bench

import (
	"fmt"
	"testing"

	"ampcgraph/internal/ampc"
)

// TestServingComparisonSmall runs the serving experiment on the small OK
// stand-in and checks its acceptance properties: byte-identical outputs in
// every concurrent job, positive plan-cache hits, and a throughput factor
// above serialized parity.
func TestServingComparisonSmall(t *testing.T) {
	rows, _, err := ServingComparison(Options{Datasets: []string{"OK"}, Machines: 4, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	row := rows[0]
	if !row.Identical {
		t.Error("concurrent jobs diverged from the one-shot references")
	}
	if row.PlanCacheHits <= 0 {
		t.Errorf("plan cache hits = %d, want > 0", row.PlanCacheHits)
	}
	if row.Jobs != len(servingMix) {
		t.Errorf("jobs = %d, want %d", row.Jobs, len(servingMix))
	}
	if row.ThroughputX <= 1 {
		t.Errorf("throughput = %.2fx, want > 1x", row.ThroughputX)
	}
	if row.GateFloorX > row.ThroughputMeanX {
		t.Errorf("gate floor %.2f above the mean %.2f", row.GateFloorX, row.ThroughputMeanX)
	}
	if row.SerializedSim <= 0 || row.ConcurrentSim <= 0 || row.PrepSim <= 0 {
		t.Errorf("non-positive modeled times: serialized=%v concurrent=%v prep=%v",
			row.SerializedSim, row.ConcurrentSim, row.PrepSim)
	}
}

// TestServingSmokeMeetsAcceptance pins the headline acceptance number of the
// serving layer on the smoke configuration: four concurrent query jobs on
// one warm session must beat the serialized one-shot runs by at least 1.5x
// on both hub-heavy stand-ins, at byte-identical, valid outputs and with the
// plan cache scoring hits.
func TestServingSmokeMeetsAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full CW/HL serving comparison")
	}
	rows := smokeGatesHold(t, "serving", Options{})
	for _, graph := range hubs {
		if x := gateValue(t, rows, graph, "throughput_mean_x").Value; x < 1.5 {
			t.Errorf("%s: throughput = %.2fx, want >= 1.5x", graph, x)
		}
	}
}

// TestConcurrentJobsByteIdenticalAcrossBackends is the serving-layer stress
// matrix: N concurrent query jobs per session, across every storage backend
// and both placement policies, must each reproduce the one-shot reference
// outputs exactly and pass the oracles.  Sharing a session changes where
// shards live and which machine does which work — never what is computed.
func TestConcurrentJobsByteIdenticalAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("runs concurrent job batches once per backend and placement")
	}
	base := ampc.Config{Machines: 4, Threads: 2, Pipeline: true, Seed: 1}
	in := okInputs(base.Seed, 3)

	refCfg := base
	refCfg.Backend = ampc.BackendMem
	refCfg.Placement = ampc.PlacementHash
	ref := mustRun(t, in, refCfg, "MIS", "MM", "CC")
	mustMatch(t, in, ref, ref, "one-shot reference")

	queries := append(append([]string(nil), servingMix...), servingMix...)
	for _, backend := range allBackends {
		for _, placement := range []string{ampc.PlacementHash, ampc.PlacementWeighted} {
			t.Run(backend+"/"+placement, func(t *testing.T) {
				cfg := base
				cfg.Backend = backend
				cfg.Placement = placement
				ss, err := openServing(cfg, in.g)
				if err != nil {
					t.Fatal(err)
				}
				defer ss.Close()
				outs, _, err := ss.batch(queries, in.g)
				if err != nil {
					t.Fatal(err)
				}
				for i, out := range outs {
					mustMatch(t, in, out, ref, fmt.Sprintf("job %d (%s)", i, queries[i]))
				}
			})
		}
	}
}
