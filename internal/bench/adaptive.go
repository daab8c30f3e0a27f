package bench

import (
	"fmt"
	"time"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/core/matching"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/graph"
)

// The adaptive experiment measures online ownership
// rebalancing between pipeline segments: the static degree-weighted table
// balances owned bytes, but the queries a segment actually issues follow
// search-tree work, not owned degree.  Job.Rebalance re-derives the
// prefix-sum boundaries from the per-machine query counters (and the modeled
// lookup latency) observed in the finished segment and migrates the affected
// shards, so the next segment's work partition tracks observed load instead
// of the a-priori weights.

// adaptiveRepeats is the number of independent adaptive runs per dataset.
// The re-derived table folds in modeled lookup latency, which depends
// slightly on goroutine scheduling, so the row reports mean and standard
// deviation over the repeats and the smoke gate derives its floor from the
// spread.
const adaptiveRepeats = 3

// AdaptiveRow is one dataset of the static-vs-adaptive ownership comparison:
// a fused MIS + maximal matching workload run as two pipeline segments under
// the static degree-weighted table, and again with a Job.Rebalance
// between the segments.  The metric is the max/mean of per-machine query
// counts in the second segment — the observed query imbalance the rebalance
// is supposed to shrink toward 1.0.
type AdaptiveRow struct {
	Graph string `json:"graph"`
	// Identical reports whether every adaptive run produced exactly the
	// outputs of the static run (it must: ownership only moves keys and
	// work between machines).
	Identical bool `json:"identical"`
	// Repeats is the number of independent adaptive runs behind the
	// mean/std columns; the static arm's query counts are deterministic and
	// run once.
	Repeats int `json:"repeats"`
	// StaticMaxMean is the second-segment query max/mean under the static
	// table; AdaptiveMaxMean* summarize it under the rebalanced table.
	StaticMaxMean       float64 `json:"static_max_mean"`
	AdaptiveMaxMeanMean float64 `json:"adaptive_max_mean_mean"`
	AdaptiveMaxMeanStd  float64 `json:"adaptive_max_mean_std"`
	// ImprovementMeanPct is the mean percentage of the static imbalance
	// (the excess over perfect balance, StaticMaxMean - 1) removed by the
	// rebalance, with its sample standard deviation over the repeats.
	ImprovementMeanPct float64 `json:"improvement_mean_pct"`
	ImprovementStdPct  float64 `json:"improvement_std_pct"`
	// MigratedKeys/MigratedBytes and MigrationSim report the last adaptive
	// run's migration volume and its modeled cost.
	MigratedKeys  int64         `json:"migrated_keys"`
	MigratedBytes int64         `json:"migrated_bytes"`
	MigrationSim  time.Duration `json:"migration_sim_ns"`
	// GateFloorPct is the variance-derived regression floor for the
	// improvement mean: mean - 3 x std - 0.01.  The fixed 0.01pp margin
	// keeps the floor outside the run-to-run scheduling noise band when
	// three repeats happen to measure a near-zero std.  A fresh run whose
	// improvement falls below the committed floor fails the smoke gate.
	GateFloorPct float64 `json:"gate_floor_pct"`
}

// adaptiveFusedRun executes the two-segment MIS + MM workload on a fresh
// runtime: segment one runs the MIS rounds pipelined, then (with adaptive
// set) Job.Rebalance re-derives the ownership boundaries from the
// observed load and migrates the shards, and segment two runs the MM rounds
// — whose plan is built after the rebalance, so its partitioners answer from
// the updated table.  It returns the second segment's per-machine query
// max/mean, the outputs, and the runtime's stats.
func adaptiveFusedRun(g *graph.Graph, cfg ampc.Config, adaptive bool) (maxMean float64, out outputs, st ampc.Stats, err error) {
	rt := ampc.New(cfg)
	defer rt.Close()
	misPlan, err := mis.NewPlan(rt, g)
	if err != nil {
		return
	}
	if err = rt.RunPipeline(misPlan.Rounds()); err != nil {
		return
	}
	if adaptive {
		if _, err = rt.Rebalance(); err != nil {
			return
		}
	}
	mmPlan, err := matching.NewPlan(rt, g)
	if err != nil {
		return
	}
	before := rt.Stats().MachineQueries
	if err = rt.RunPipeline(mmPlan.Rounds()); err != nil {
		return
	}
	st = rt.Stats()
	return queryMaxMean(before, st.MachineQueries), outputs{InMIS: misPlan.InMIS, Mate: mmPlan.Matching.Mate}, st, nil
}

// queryMaxMean computes the max/mean ratio of the per-machine query counts
// accumulated between the two snapshots (1.0 = perfectly even).
func queryMaxMean(before, after []int64) float64 {
	var max, total float64
	for i, a := range after {
		d := float64(a)
		if i < len(before) {
			d -= float64(before[i])
		}
		if d < 0 {
			d = 0
		}
		total += d
		if d > max {
			max = d
		}
	}
	if len(after) == 0 || total <= 0 {
		return 0
	}
	return max / (total / float64(len(after)))
}

// imbalanceReductionPct is the percentage of the static excess imbalance
// (max/mean above the perfect 1.0) removed by the adaptive run.
func imbalanceReductionPct(static, adaptive float64) float64 {
	return safeReductionPct(static-1, adaptive-1)
}

// AdaptiveComparison runs the fused two-segment MIS+MM workload under the
// static degree-weighted ownership and with an online rebalance between the
// segments, verifying byte-identical outputs and reporting how much of the
// second segment's observed query imbalance the rebalance removed.
func AdaptiveComparison(opts Options) ([]AdaptiveRow, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title: "Adaptive ownership: static degree-weighted vs online rebalanced between segments",
		Header: fmt.Sprintf("%-8s %10s %7s %12s %12s %16s %10s %12s",
			"graph", "identical", "repeats", "static-mm", "adaptive-mm", "improvement", "moved-keys", "migration"),
		Notes: []string{
			"two pipeline segments (MIS rounds, then MM rounds); the adaptive arm re-derives the ownership boundaries from segment one's per-machine query counters (plus a latency-sampled second-order weight) and migrates the affected shards before segment two",
			"static-mm / adaptive-mm: max/mean of per-machine query counts in the second segment (1.0 = perfect balance); improvement is the percentage of the static excess removed, mean +/- std",
			"migration volume is charged to the simulated clock (simtime's Price of one migration and its bytes); outputs are required to be byte-identical to the static run",
			fmt.Sprintf("the adaptive arm runs %d times (the latency weight is schedule-dependent); the static arm's query counts are deterministic", adaptiveRepeats),
		},
	}
	cfg := opts.ampcConfig()
	cfg.Placement = ampc.PlacementWeighted
	cfg.Pipeline = true
	var rows []AdaptiveRow
	for _, ng := range opts.graphs() {
		row := AdaptiveRow{Graph: ng.name, Identical: true, Repeats: adaptiveRepeats}
		in := &inputs{g: ng.g}
		staticMM, ref, _, err := adaptiveFusedRun(ng.g, cfg, false)
		if err == nil {
			err = ref.Validate(in)
		}
		if err != nil {
			return nil, rep, err
		}
		row.StaticMaxMean = staticMM
		var ratios, improvements []float64
		for i := 0; i < adaptiveRepeats; i++ {
			mm, out, st, err := adaptiveFusedRun(ng.g, cfg, true)
			if err != nil {
				return nil, rep, err
			}
			row.Identical = row.Identical && out.Matches(ref, in)
			ratios = append(ratios, mm)
			improvements = append(improvements, imbalanceReductionPct(staticMM, mm))
			row.MigratedKeys = st.MigratedKeys
			row.MigratedBytes = st.MigratedBytes
			row.MigrationSim = st.MigrationSim
		}
		row.AdaptiveMaxMeanMean, row.AdaptiveMaxMeanStd = meanStd(ratios)
		row.ImprovementMeanPct, row.ImprovementStdPct = meanStd(improvements)
		row.GateFloorPct = row.ImprovementMeanPct - 3*row.ImprovementStdPct - 0.01
		rows = append(rows, row)
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %10v %7d %12.3f %12.3f %9.1f%%+/-%4.1f %10d %12s",
			row.Graph, row.Identical, row.Repeats, row.StaticMaxMean, row.AdaptiveMaxMeanMean,
			row.ImprovementMeanPct, row.ImprovementStdPct, row.MigratedKeys,
			row.MigrationSim.Round(10*time.Microsecond)))
	}
	return rows, rep, nil
}

// adaptiveGates projects a row onto the gated metrics: byte-identity and
// the improvement mean against its variance-derived floor; the imbalance
// ratios behind it ride along as info.
func adaptiveGates(row AdaptiveRow) []GateRow {
	return []GateRow{identicalRow(row.Graph, row.Identical),
		gateRow(row.Graph, "improvement_mean_pct", GateFloor, row.ImprovementMeanPct).
			spread(row.ImprovementStdPct, row.Repeats, row.GateFloorPct),
		GateRow{Key: row.Graph, Metric: "static_max_mean", Value: row.StaticMaxMean, Direction: Lower, Gate: GateInfo},
		GateRow{Key: row.Graph, Metric: "adaptive_max_mean", Value: row.AdaptiveMaxMeanMean,
			Std: row.AdaptiveMaxMeanStd, Repeats: row.Repeats, Direction: Lower, Gate: GateInfo},
	}
}
