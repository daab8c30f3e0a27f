package bench

import (
	"fmt"
	"sort"
	"time"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
)

// The rebalance experiment compares the two contiguous ownership policies on
// the hub-heavy web stand-ins: the uniform range split (ampc
// PlacementOwnerAffine, dht.RangeOwner) against the degree-weighted split
// (PlacementWeighted, dht.NewOwnership).  The range split equalizes key
// counts, so the machine whose range holds the hubs owns a disproportionate
// share of the work and straggles every round; the weighted split follows
// the prefix sums of the vertex degrees instead.  Outputs must be
// byte-identical — ownership only decides where keys live and which machine
// does which work.

// LoadStats summarizes the per-machine owned work (sum of degree weights)
// of one ownership table.
type LoadStats struct {
	// MaxMean is the max/mean ratio of per-machine owned weight: 1.0 is a
	// perfect balance, machines x the worst possible.
	MaxMean float64 `json:"max_mean"`
	// Gini is the Gini coefficient of the per-machine owned weight (0 =
	// perfectly even, towards 1 = concentrated on few machines).
	Gini float64 `json:"gini"`
	// ZeroKeyMachines counts machines owning no keys at all (the empty-tail
	// bug of the old ceil-span split; must be 0 whenever keys >= machines).
	ZeroKeyMachines int `json:"zero_key_machines"`
}

// ownershipLoadStats computes LoadStats for the given table over the given
// per-key weights.
func ownershipLoadStats(own *dht.Ownership, weights []int) LoadStats {
	machines := own.Machines()
	loads := make([]float64, machines)
	var total float64
	var st LoadStats
	for m := 0; m < machines; m++ {
		lo, hi := own.Range(m)
		if lo >= hi {
			st.ZeroKeyMachines++
		}
		var load float64
		for k := lo; k < hi; k++ {
			load += float64(weights[k])
		}
		loads[m] = load
		total += load
	}
	if total <= 0 || machines == 0 {
		return st
	}
	mean := total / float64(machines)
	var max float64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	st.MaxMean = safeRatio(max, mean)
	// Gini via the sorted-loads formula: sum over ranked loads of
	// (2i - n + 1) * load_i / (n * total).
	sort.Float64s(loads)
	var acc float64
	for i, l := range loads {
		acc += float64(2*i-machines+1) * l
	}
	st.Gini = acc / (float64(machines) * total)
	return st
}

// RebalanceRow is one (dataset, algorithm) point of the ownership
// comparison.  The load statistics are properties of the dataset's
// ownership tables (identical across the algorithms of one graph); the run
// statistics come from executing the algorithm under each policy.
type RebalanceRow struct {
	Graph string `json:"graph"`
	Algo  string `json:"algo"`
	// Identical reports whether the two runs produced byte-identical
	// results (they must: ownership only moves keys and work between
	// machines).
	Identical bool `json:"identical"`
	// RangeLoad/WeightedLoad summarize the per-machine owned degree weight
	// under each split; LoadImbalanceReduction is
	// RangeLoad.MaxMean / WeightedLoad.MaxMean.
	RangeLoad              LoadStats `json:"range_load"`
	WeightedLoad           LoadStats `json:"weighted_load"`
	LoadImbalanceReduction float64   `json:"load_imbalance_reduction"`
	// PeakQueriesRange/Weighted are the observed peak per-(round, machine)
	// query counts (ampc.Stats.MaxMachineQueries) under each split: the
	// busiest machine-round of the run, the quantity the O(S) per-round
	// communication bound caps.  The runs share their round structure, so
	// the two peaks are directly comparable.
	PeakQueriesRange    int64 `json:"peak_queries_range"`
	PeakQueriesWeighted int64 `json:"peak_queries_weighted"`
	// BarrierIdleRange/Weighted are the straggler idle times the per-round
	// barriers pay under each split; IdleReductionPct is the percentage
	// removed by rebalancing.
	BarrierIdleRange    time.Duration `json:"barrier_idle_range_ns"`
	BarrierIdleWeighted time.Duration `json:"barrier_idle_weighted_ns"`
	IdleReductionPct    float64       `json:"idle_reduction_pct"`
	// RemoteFracRange/Weighted are the remote fractions of store reads
	// (rebalancing must not trade balance for locality).
	RemoteFracRange    float64 `json:"remote_frac_range"`
	RemoteFracWeighted float64 `json:"remote_frac_weighted"`
	// SimRange/Weighted are the modeled running times; SimSpeedup is
	// SimRange / SimWeighted.
	SimRange    time.Duration `json:"sim_range_ns"`
	SimWeighted time.Duration `json:"sim_weighted_ns"`
	SimSpeedup  float64       `json:"sim_speedup"`
}

// rebalanceLoads computes the per-graph load statistics of the two
// ownership tables over the graph's degree weights.
func rebalanceLoads(g *graph.Graph, machines int) (rangeLoad, weightedLoad LoadStats) {
	weights := graph.DegreeWeights(g)
	n := len(weights)
	rangeLoad = ownershipLoadStats(dht.RangeOwnership(machines, n), weights)
	weightedLoad = ownershipLoadStats(dht.NewOwnership(machines, weights), weights)
	return rangeLoad, weightedLoad
}

// RebalanceComparison runs MIS, maximal matching and MSF under the uniform
// range ownership and the degree-weighted ownership on the hub-heavy
// stand-ins, verifying byte-identical results and
// reporting the per-machine load balance, the straggler idle at barriers,
// the remote fraction and the modeled time of each policy.  Both sides run
// with round pipelining enabled so the per-(round, machine) durations — and
// therefore the barrier straggler idle — are accounted.
func RebalanceComparison(opts Options) ([]RebalanceRow, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title: "Degree-weighted ownership rebalancing: range vs weighted contiguous partition",
		Header: fmt.Sprintf("%-8s %-5s %10s %11s %11s %10s %9s %9s %10s %9s",
			"graph", "algo", "identical", "load-range", "load-wtd", "load-cut", "peak-rng", "peak-wtd", "idle-cut", "speedup"),
		Notes: []string{
			"load-range / load-wtd: max/mean per-machine owned degree weight under the range and weighted splits (1.0 = perfect balance); load-cut is their ratio",
			"peak: busiest per-(round, machine) key-value query count observed in the runs; idle-cut: straggler idle removed at per-round barriers",
			"degree weights balance the bytes each machine stores and serves; rounds whose per-vertex work is degree-proportional (KV-writes, MSF's Prim searches) see the straggler gap shrink, while the recursive MIS/MM searches have work driven by search-tree size, not owned degree",
			"results are required to be byte-identical under either ownership; no machine may own zero keys",
		},
	}
	cfgRange := opts.ampcConfig()
	cfgRange.Placement = ampc.PlacementOwnerAffine
	cfgRange.Pipeline = true
	cfgWeighted := cfgRange
	cfgWeighted.Placement = ampc.PlacementWeighted
	pairs, err := compareConfigs(opts, cfgRange, cfgWeighted)
	if err != nil {
		return nil, rep, err
	}
	loadByGraph := make(map[string][2]LoadStats)
	for _, ng := range opts.graphs() {
		r, w := rebalanceLoads(ng.g, opts.Machines)
		loadByGraph[ng.name] = [2]LoadStats{r, w}
	}
	var rows []RebalanceRow
	for _, p := range pairs {
		loads := loadByGraph[p.Graph]
		row := RebalanceRow{
			Graph:                  p.Graph,
			Algo:                   p.Algo,
			Identical:              p.Identical,
			RangeLoad:              loads[0],
			WeightedLoad:           loads[1],
			LoadImbalanceReduction: safeRatio(loads[0].MaxMean, loads[1].MaxMean),
			PeakQueriesRange:       p.A.MaxMachineQueries,
			PeakQueriesWeighted:    p.B.MaxMachineQueries,
			BarrierIdleRange:       p.A.BarrierIdle,
			BarrierIdleWeighted:    p.B.BarrierIdle,
			IdleReductionPct:       safeReductionPct(float64(p.A.BarrierIdle), float64(p.B.BarrierIdle)),
			RemoteFracRange:        p.A.RemoteFrac,
			RemoteFracWeighted:     p.B.RemoteFrac,
			SimRange:               p.A.Sim,
			SimWeighted:            p.B.Sim,
			SimSpeedup:             safeRatio(float64(p.A.Sim), float64(p.B.Sim)),
		}
		rows = append(rows, row)
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %-5s %10v %11.3f %11.3f %9.2fx %9d %9d %9.1f%% %8.2fx",
			row.Graph, row.Algo, row.Identical, row.RangeLoad.MaxMean, row.WeightedLoad.MaxMean,
			row.LoadImbalanceReduction, row.PeakQueriesRange, row.PeakQueriesWeighted,
			row.IdleReductionPct, row.SimSpeedup))
	}
	return rows, rep, nil
}

// rebalanceGates projects a row onto the gated metrics, keyed by graph: the
// load statistics are a pure function of the generated graph and the machine
// count (identical across the algorithms of one graph, which fold into one
// row; no scheduling), so the gate carries no run-to-run noise.
func rebalanceGates(row RebalanceRow) []GateRow {
	return []GateRow{
		gateRow(row.Graph, "load_imbalance_reduction", GateFrac, row.LoadImbalanceReduction),
		gateRow(row.Graph, "zero_key_machines", GateZero, float64(row.RangeLoad.ZeroKeyMachines+row.WeightedLoad.ZeroKeyMachines)),
	}
}
