package bench

import (
	"fmt"
	"time"

	"ampcgraph/internal/ampc"
)

// LocalityRow is one (dataset, algorithm) point of the placement comparison:
// the same computation run with hash-random placement (every key-value
// access is a remote round trip, the paper's uniform model) and with the
// owner-affine placement (each vertex's records co-located with the machine
// that owns the vertex).
type LocalityRow struct {
	Graph string `json:"graph"`
	Algo  string `json:"algo"`
	// Identical reports whether the two runs produced byte-identical
	// results (they must: placement only moves keys between shards).
	Identical bool `json:"identical"`
	// RemoteReadsHash/Owner count key-value reads that crossed the network
	// under each placement; their ratio is the remote-read reduction.
	RemoteReadsHash  int64   `json:"remote_reads_hash"`
	RemoteReadsOwner int64   `json:"remote_reads_owner"`
	RemoteReduction  float64 `json:"remote_reduction"`
	// LocalReadsOwner counts reads served by co-located shards under the
	// owner-affine placement (always 0 under hash placement).
	LocalReadsOwner int64 `json:"local_reads_owner"`
	// RemoteFracOwner is the fraction of store reads that stayed remote
	// under the owner-affine placement.
	RemoteFracOwner float64 `json:"remote_frac_owner"`
	// RemoteBytesHash/Owner are the key-value bytes that crossed the
	// network under each placement.
	RemoteBytesHash  int64 `json:"remote_bytes_hash"`
	RemoteBytesOwner int64 `json:"remote_bytes_owner"`
	// SimHash/Owner are the modeled running times of the two runs, and
	// SimSpeedup is SimHash / SimOwner (how much the modeled time improved
	// by serving co-located accesses at local latency).
	SimHash    time.Duration `json:"sim_hash_ns"`
	SimOwner   time.Duration `json:"sim_owner_ns"`
	SimSpeedup float64       `json:"sim_speedup"`
}

func newLocalityRow(graph, algo string, identical bool, hash, owner ampc.Stats) LocalityRow {
	row := LocalityRow{
		Graph:            graph,
		Algo:             algo,
		Identical:        identical,
		RemoteReadsHash:  hash.RemoteReads,
		RemoteReadsOwner: owner.RemoteReads,
		LocalReadsOwner:  owner.LocalReads,
		RemoteFracOwner:  owner.RemoteFrac,
		RemoteBytesHash:  hash.KVRemoteBytes,
		RemoteBytesOwner: owner.KVRemoteBytes,
		SimHash:          hash.Sim,
		SimOwner:         owner.Sim,
	}
	// Tiny graphs can serve every owner-side read locally; the guarded
	// ratios keep such zero-denominator rows finite in the table and JSON.
	row.RemoteReduction = safeRatio(float64(hash.RemoteReads), float64(owner.RemoteReads))
	row.SimSpeedup = safeRatio(float64(hash.Sim), float64(owner.Sim))
	return row
}

// LocalityComparison runs MIS, maximal matching and MSF under hash-random
// and owner-affine shard placement, verifying that the results are identical
// and measuring the remote-read and modeled-time reduction of co-locating
// each vertex's records with the machine that owns the vertex.
func LocalityComparison(opts Options) ([]LocalityRow, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title: "Locality-aware shard placement: hash-random vs owner-affine",
		Header: fmt.Sprintf("%-8s %-5s %10s %12s %12s %10s %10s %12s %9s",
			"graph", "algo", "identical", "remote-hash", "remote-own", "reduction", "rem-frac", "sim-delta", "speedup"),
		Notes: []string{
			"owner-affine placement co-locates each vertex's shard with the machine owning the vertex (contiguous range partition); rounds are partitioned by the same ownership function",
			"a co-located access is a DRAM lookup instead of a network round trip (the paper observes RDMA is an order of magnitude slower than DRAM)",
			"results are required to be byte-identical under either placement",
		},
	}
	cfgHash := opts.ampcConfig()
	cfgHash.Placement = ampc.PlacementHash
	cfgOwner := cfgHash
	cfgOwner.Placement = ampc.PlacementOwnerAffine
	pairs, err := compareConfigs(opts, cfgHash, cfgOwner)
	if err != nil {
		return nil, rep, err
	}
	var rows []LocalityRow
	for _, p := range pairs {
		rows = append(rows, newLocalityRow(p.Graph, p.Algo, p.Identical, p.A, p.B))
	}
	for _, row := range rows {
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %-5s %10v %12d %12d %9.2fx %9.1f%% %12s %8.2fx",
			row.Graph, row.Algo, row.Identical, row.RemoteReadsHash, row.RemoteReadsOwner,
			row.RemoteReduction, 100*row.RemoteFracOwner,
			(row.SimHash-row.SimOwner).Round(10*time.Microsecond), row.SimSpeedup))
	}
	return rows, rep, nil
}

// localityGates projects a row onto the gated metrics.  The remote-read
// counts are deterministic up to cache scheduling; the fractional tolerance
// plus best-of merging absorb that.
func localityGates(row LocalityRow) []GateRow {
	key := row.Graph + "/" + row.Algo
	return []GateRow{identicalRow(key, row.Identical),
		gateRow(key, "remote_reduction", GateFrac, row.RemoteReduction),
	}
}
