package bench

import (
	"fmt"
	"time"

	"ampcgraph/internal/ampc"
)

// BatchRow is one (dataset, algorithm) point of the batched-vs-unbatched
// comparison: the same computation run with single-key key-value requests
// and with the shard-grouped batch pipeline.
type BatchRow struct {
	Graph string `json:"graph"`
	Algo  string `json:"algo"`
	// Identical reports whether the two runs produced byte-identical
	// results (they must: batching only regroups requests).
	Identical bool `json:"identical"`
	// ShardVisitsOff/On count shard lock acquisitions across all hash
	// tables; their ratio is the contention reduction of batching.
	ShardVisitsOff int64   `json:"shard_visits_off"`
	ShardVisitsOn  int64   `json:"shard_visits_on"`
	VisitReduction float64 `json:"visit_reduction"`
	// BatchesIssued and KeysPerBatch describe the batched run's grouping.
	BatchesIssued int64   `json:"batches_issued"`
	KeysPerBatch  float64 `json:"keys_per_batch"`
	// SimOff/On are the modeled running times of the two runs.
	SimOff time.Duration `json:"sim_off_ns"`
	SimOn  time.Duration `json:"sim_on_ns"`
	// SimSpeedup is SimOff / SimOn.
	SimSpeedup float64 `json:"sim_speedup"`
}

func newBatchRow(graph, algo string, identical bool, off, on ampc.Stats) BatchRow {
	row := BatchRow{
		Graph:          graph,
		Algo:           algo,
		Identical:      identical,
		ShardVisitsOff: off.KVShardVisits,
		ShardVisitsOn:  on.KVShardVisits,
		BatchesIssued:  on.BatchesIssued,
		SimOff:         off.Sim,
		SimOn:          on.Sim,
	}
	if on.KVShardVisits > 0 {
		row.VisitReduction = float64(off.KVShardVisits) / float64(on.KVShardVisits)
	}
	if on.BatchesIssued > 0 {
		row.KeysPerBatch = float64(on.BatchedKeys) / float64(on.BatchesIssued)
	}
	if on.Sim > 0 {
		row.SimSpeedup = float64(off.Sim) / float64(on.Sim)
	}
	return row
}

// BatchComparison runs MIS (the Get-heavy workload), maximal matching and
// MSF with the batch pipeline off and on, verifying that the results are
// identical and measuring the shard-visit and modeled-time reduction.
func BatchComparison(opts Options) ([]BatchRow, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title: "Batched vs unbatched key-value pipeline (shard lock acquisitions)",
		Header: fmt.Sprintf("%-8s %-5s %10s %12s %12s %10s %10s %9s",
			"graph", "algo", "identical", "visits-off", "visits-on", "reduction", "keys/batch", "speedup"),
		Notes: []string{
			"batching groups fan-out reads and bulk writes by shard, taking each shard lock once per batch instead of once per key (§5.3's per-request overhead amortization)",
			"results are required to be byte-identical with batching on and off",
		},
	}
	cfgOff := opts.ampcConfig()
	cfgOff.Batch = false
	cfgOn := cfgOff
	cfgOn.Batch = true
	pairs, err := compareConfigs(opts, cfgOff, cfgOn)
	if err != nil {
		return nil, rep, err
	}
	var rows []BatchRow
	for _, p := range pairs {
		rows = append(rows, newBatchRow(p.Graph, p.Algo, p.Identical, p.A, p.B))
	}
	for _, row := range rows {
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %-5s %10v %12d %12d %9.2fx %10.1f %8.2fx",
			row.Graph, row.Algo, row.Identical, row.ShardVisitsOff, row.ShardVisitsOn,
			row.VisitReduction, row.KeysPerBatch, row.SimSpeedup))
	}
	return rows, rep, nil
}

// batchGates projects a row onto the gated metrics: byte-identity, the
// shard-visit reduction and the modeled speedup.
func batchGates(row BatchRow) []GateRow {
	key := row.Graph + "/" + row.Algo
	return []GateRow{identicalRow(key, row.Identical),
		gateRow(key, "visit_reduction", GateFrac, row.VisitReduction),
		gateRow(key, "sim_speedup", GateFrac, row.SimSpeedup),
	}
}
