package bench

import (
	"encoding/json"
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
)

// TestOwnershipLoadStats pins the load arithmetic on hand-checkable tables:
// a uniform split of uniform weights is perfectly balanced, and piling the
// weight onto one machine's range shows up in both MaxMean and Gini.
func TestOwnershipLoadStats(t *testing.T) {
	uniform := make([]int, 100)
	for i := range uniform {
		uniform[i] = 1
	}
	st := ownershipLoadStats(dht.RangeOwnership(4, 100), uniform)
	if st.MaxMean != 1 || st.Gini != 0 || st.ZeroKeyMachines != 0 {
		t.Fatalf("uniform load stats %+v, want max/mean 1, gini 0", st)
	}

	skewed := make([]int, 100)
	for i := range skewed {
		skewed[i] = 1
	}
	skewed[0] = 300 // machine 0's range holds the hub
	ranged := ownershipLoadStats(dht.RangeOwnership(4, 100), skewed)
	if ranged.MaxMean <= 2 || ranged.Gini <= 0 {
		t.Fatalf("hub load stats %+v, want skew visible", ranged)
	}
	balanced := ownershipLoadStats(dht.NewOwnership(4, skewed), skewed)
	if balanced.MaxMean >= ranged.MaxMean {
		t.Fatalf("weighted split max/mean %.3f not below range %.3f", balanced.MaxMean, ranged.MaxMean)
	}

	// The old empty-tail shape: 12 keys over 8 machines.  The balanced
	// tables must leave no machine without keys.
	twelve := make([]int, 12)
	for i := range twelve {
		twelve[i] = 1
	}
	for _, own := range []*dht.Ownership{dht.RangeOwnership(8, 12), dht.NewOwnership(8, twelve)} {
		if st := ownershipLoadStats(own, twelve); st.ZeroKeyMachines != 0 {
			t.Fatalf("balanced split still starves %d machine(s)", st.ZeroKeyMachines)
		}
	}
}

// TestSafeRatioGuards pins the zero-denominator guards of the comparison
// experiments: degenerate baselines (no remote reads, no idle) must yield
// finite, JSON-encodable rows instead of NaN/Inf.
func TestSafeRatioGuards(t *testing.T) {
	if got := safeRatio(6, 3); got != 2 {
		t.Fatalf("safeRatio(6,3) = %v", got)
	}
	if got := safeRatio(0, 0); got != 1 {
		t.Fatalf("safeRatio(0,0) = %v, want parity", got)
	}
	if got := safeRatio(5, 0); got != 0 {
		t.Fatalf("safeRatio(5,0) = %v, want 0 (undefined)", got)
	}
	if got := safeReductionPct(0, 0); got != 0 {
		t.Fatalf("safeReductionPct(0,0) = %v", got)
	}
	if got := safeReductionPct(10, 5); got != 50 {
		t.Fatalf("safeReductionPct(10,5) = %v", got)
	}

	// A locality row built from all-zero statistics (a tiny graph whose
	// owner run served everything locally) must encode cleanly —
	// encoding/json rejects NaN and Inf outright.
	row := newLocalityRow("tiny", "MIS", true, ampc.Stats{}, ampc.Stats{})
	if _, err := json.Marshal(row); err != nil {
		t.Fatalf("zero-stats locality row does not marshal: %v", err)
	}
	if row.RemoteReduction != 1 || row.SimSpeedup != 1 {
		t.Fatalf("zero-stats locality row ratios %+v, want parity", row)
	}
}

// TestRebalanceLoadsDeterministic checks that the gated load statistics are
// a pure function of the pinned configuration (the property that lets
// benchcheck gate them without noise damping) and show the win on both hub
// stand-ins.
func TestRebalanceLoadsDeterministic(t *testing.T) {
	for _, name := range hubs {
		d, _ := gen.DatasetByName(name)
		g := d.Build(1, 1)
		rangeLoad, weightedLoad := rebalanceLoads(g, 8)
		if r, w := rebalanceLoads(g, 8); r != rangeLoad || w != weightedLoad {
			t.Fatalf("%s: load statistics not deterministic: %+v/%+v vs %+v/%+v", name, rangeLoad, weightedLoad, r, w)
		}
		if cut := safeRatio(rangeLoad.MaxMean, weightedLoad.MaxMean); cut <= 1 {
			t.Errorf("%s: load-imbalance reduction %.3f, want > 1 on a hub stand-in", name, cut)
		}
		if rangeLoad.ZeroKeyMachines != 0 || weightedLoad.ZeroKeyMachines != 0 {
			t.Errorf("%s: zero-key machines under range/weighted: %d/%d",
				name, rangeLoad.ZeroKeyMachines, weightedLoad.ZeroKeyMachines)
		}
	}
}

// TestRebalanceComparison guards the acceptance bar of the weighted
// ownership: on a hub stand-in the weighted split must report a strictly
// lower max/mean per-machine load than the range split, starve no machine
// of keys, and leave every algorithm's output byte-identical.
func TestRebalanceComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("rebalance comparison runs every algorithm twice")
	}
	rows, rep, err := RebalanceComparison(Options{Datasets: []string{"CW"}, Seed: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d, want MIS+MM+MSF", len(rows))
	}
	for _, row := range rows {
		if !row.Identical {
			t.Errorf("%s/%s: results differ across ownership policies", row.Graph, row.Algo)
		}
		if row.WeightedLoad.MaxMean >= row.RangeLoad.MaxMean {
			t.Errorf("%s/%s: weighted max/mean %.3f not strictly below range %.3f",
				row.Graph, row.Algo, row.WeightedLoad.MaxMean, row.RangeLoad.MaxMean)
		}
		if row.WeightedLoad.Gini >= row.RangeLoad.Gini {
			t.Errorf("%s/%s: weighted Gini %.3f not below range %.3f",
				row.Graph, row.Algo, row.WeightedLoad.Gini, row.RangeLoad.Gini)
		}
		if row.RangeLoad.ZeroKeyMachines != 0 || row.WeightedLoad.ZeroKeyMachines != 0 {
			t.Errorf("%s/%s: zero-key machines %d/%d", row.Graph, row.Algo,
				row.RangeLoad.ZeroKeyMachines, row.WeightedLoad.ZeroKeyMachines)
		}
		if row.LoadImbalanceReduction <= 1 {
			t.Errorf("%s/%s: load-imbalance reduction %.3f, want > 1",
				row.Graph, row.Algo, row.LoadImbalanceReduction)
		}
		if row.RemoteFracWeighted <= 0 || row.RemoteFracWeighted >= 1 {
			t.Errorf("%s/%s: weighted remote fraction %v not in (0,1)",
				row.Graph, row.Algo, row.RemoteFracWeighted)
		}
	}
	if len(rep.Rows) != len(rows) {
		t.Fatalf("report rows %d != data rows %d", len(rep.Rows), len(rows))
	}
}

// TestWeightedPlacementKeepsOwnedReadsLocalOnHubs checks the key-for-key
// agreement between weighted partitioners and weighted placement on a real
// hub graph: the owner-partitioned KV-write of MIS must move zero remote
// bytes, exactly as under the range split.
func TestWeightedPlacementKeepsOwnedReadsLocalOnHubs(t *testing.T) {
	g := gen.Datasets()[3].Build(1, 1) // CW stand-in
	weights := graph.DegreeWeights(g)
	n := g.NumNodes()
	own := dht.NewOwnership(8, weights)
	p := dht.OwnershipPlacement(own)
	shards := 32
	for k := 0; k < n; k++ {
		shard := p.ShardFor(uint64(k), shards)
		if m := p.MachineFor(shard, shards); m != own.OwnerOf(uint64(k)) {
			t.Fatalf("key %d co-located with %d, owner %d", k, m, own.OwnerOf(uint64(k)))
		}
	}
}
