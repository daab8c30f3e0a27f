package bench

import "testing"

// TestBatchComparison guards the acceptance bar of the batching pipeline: on
// the Get-heavy MIS workload the batched runs must acquire at least 2x fewer
// shard locks, and every algorithm must produce byte-identical results with
// batching on and off.
func TestBatchComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("batch comparison runs every algorithm twice")
	}
	rows, _, err := BatchComparison(Options{Datasets: []string{"OK"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		if !row.Identical {
			t.Errorf("%s/%s: batched and unbatched results differ", row.Graph, row.Algo)
		}
		if row.ShardVisitsOn <= 0 {
			t.Errorf("%s/%s: no shard visits recorded", row.Graph, row.Algo)
		}
		if row.Algo == "MIS" && row.VisitReduction < 2 {
			t.Errorf("%s/MIS: shard-visit reduction %.2fx, want >= 2x", row.Graph, row.VisitReduction)
		}
	}
}
