package mis

import (
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
	"ampcgraph/internal/seq"
)

// runWithShardFailures runs the MIS plan on a fresh runtime round by round
// and fails the given shards of the directed-graph store between the KV-write
// round and the search round.  It exists to test the fault-tolerance
// property of the model (Section 2); the production entry points do not
// inject failures.
func runWithShardFailures(cfg ampc.Config, g *graph.Graph, shards ...int) ([]bool, error) {
	rt := ampc.New(cfg)
	defer rt.Close()
	plan, err := NewPlan(rt, g)
	if err != nil {
		return nil, err
	}
	if err := rt.Run(plan.Write); err != nil {
		return nil, err
	}
	for _, i := range shards {
		plan.Search.Read.FailShard(i)
	}
	if err := rt.Run(plan.Search); err != nil {
		return nil, err
	}
	return plan.InMIS, nil
}

// TestMISSurvivesShardFailureWithReplication exercises the fault-tolerance
// property of Section 2: with replicated hash tables, losing key-value
// servers mid-computation must not change the result.
func TestMISSurvivesShardFailureWithReplication(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 19)
	n := g.NumNodes()

	// Reference result without failures.
	want := seq.GreedyMIS(g, rng.VertexPriorities(19, n))

	cfg := ampc.Config{Machines: 4, Threads: 2, EnableCache: true, Seed: 19, Replicate: true, Shards: 8}
	res, err := runWithShardFailures(cfg, g, 0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if res[v] != want[v] {
			t.Fatalf("result changed after shard failures at vertex %d", v)
		}
	}
}

// TestMISFailsWithoutReplication is the negative control: the same failure
// without replication surfaces as an error instead of a silently wrong
// answer.
func TestMISFailsWithoutReplication(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 19)
	cfg := ampc.Config{Machines: 4, Threads: 2, EnableCache: true, Seed: 19, Replicate: false, Shards: 8}
	if _, err := runWithShardFailures(cfg, g, 0, 1, 2, 3, 4, 5, 6, 7); err == nil {
		t.Fatal("expected lookups against failed, unreplicated shards to fail")
	}
}
