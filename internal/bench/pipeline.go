package bench

import (
	"fmt"
	"time"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/core/matching"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/graph"
)

// pipelineRepeats is the number of independent fused runs per conflict
// variant.  The straggler-idle metric depends slightly on goroutine
// scheduling, so the row reports mean and standard deviation over the
// repeats and the smoke gate derives its floor from the spread.
const pipelineRepeats = 3

// PipelineRow is one dataset of the barrier-vs-pipeline comparison: a fused
// MIS + maximal matching workload (six rounds — two independent KV-writes,
// two range-confined local searches, two spill searches) executed with the
// dependency-aware pipelined scheduler under two conflict declarations —
// the key-range spans the plans declare, and the same rounds widened to
// whole-store conflicts (ampc.Widen) — next to the standalone barrier-mode
// runs whose outputs every fused run must reproduce exactly.
type PipelineRow struct {
	Graph string `json:"graph"`
	// Identical reports whether every fused pipelined run produced exactly
	// the outputs of the standalone barrier runs (it must: pipelining only
	// reorders which machine works when).
	Identical bool `json:"identical"`
	// PipelinedRounds is the number of rounds in the fused segment.
	PipelinedRounds int `json:"pipelined_rounds"`
	// Repeats is the number of independent fused runs per variant behind
	// the mean/std columns.
	Repeats int `json:"repeats"`
	// BarrierSim is the modeled time the fused rounds would cost at
	// per-round barriers; PipelineSim is the modeled critical-path time
	// actually charged under the range declarations.  SimDelta is their
	// difference (the modeled time the pipeline saved), SimSpeedup the
	// ratio.
	BarrierSim  time.Duration `json:"barrier_sim_ns"`
	PipelineSim time.Duration `json:"pipeline_sim_ns"`
	SimDelta    time.Duration `json:"sim_delta_ns"`
	SimSpeedup  float64       `json:"sim_speedup"`
	// BarrierIdle is the total straggler idle (summed over machines) the
	// barrier schedule pays; PipelineIdle is what remains under the
	// range-declared pipelined schedule; IdleReductionPct is the mean
	// percentage removed (== RangedIdleReductionMeanPct).
	BarrierIdle      time.Duration `json:"barrier_idle_ns"`
	PipelineIdle     time.Duration `json:"pipeline_idle_ns"`
	IdleReductionPct float64       `json:"idle_reduction_pct"`
	// Ranged*/Whole* characterize the straggler-idle reduction of the two
	// conflict declarations over the repeats: mean and sample standard
	// deviation, in percent of the barrier idle.
	RangedIdleReductionMeanPct float64 `json:"ranged_idle_reduction_mean_pct"`
	RangedIdleReductionStdPct  float64 `json:"ranged_idle_reduction_std_pct"`
	WholeIdleReductionMeanPct  float64 `json:"whole_idle_reduction_mean_pct"`
	WholeIdleReductionStdPct   float64 `json:"whole_idle_reduction_std_pct"`
	// RangedAdvantagePct is the ranged mean minus the whole-store mean: the
	// idle reduction bought by declaring key-range conflicts instead of
	// whole stores.  The smoke gate requires it to stay positive.
	RangedAdvantagePct float64 `json:"ranged_advantage_pct"`
	// GateFloorPct is the variance-derived regression floor for the ranged
	// mean: mean - 3 x std - 0.01.  The fixed 0.01pp margin covers the
	// degenerate case where three repeats happen to measure a std smaller
	// than the true run-to-run scheduling noise (~0.001pp), which would
	// otherwise leave the floor inside the noise band.  A fresh run whose
	// ranged mean falls below the committed floor fails the smoke gate.
	GateFloorPct float64 `json:"gate_floor_pct"`
}

// PipelineComparison measures range-declared round pipelining on skewed
// (hub-heavy) inputs.  For each dataset it runs MIS and maximal matching
// standalone at per-round barriers, then fuses the two algorithms' rounds
// into one six-round RunPipeline segment, software-pipelined: MM's KV-write
// and range-confined local search, then MIS's KV-write and local search,
// then both spill searches.  The machine owning the hubs straggles in MM's
// local round, so its share of the MIS write lands late; under the
// key-range declarations only reads of the hub's own range wait for it,
// while widening the same rounds to whole-store conflicts (ampc.Widen)
// re-propagates the straggle through the MIS store into every machine's
// local search.  The difference between the two idle reductions is what
// the key-range API buys.  Outputs must be byte-identical to the
// standalone runs under both declarations; each variant runs
// pipelineRepeats times and the row reports mean/std.
func PipelineComparison(opts Options) ([]PipelineRow, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title: "Range-declared round pipelining: barrier vs pipelined schedule (fused MIS+MM)",
		Header: fmt.Sprintf("%-8s %10s %7s %14s %14s %16s %16s %10s",
			"graph", "identical", "rounds", "barrier-sim", "pipeline-sim", "ranged-idle-cut", "whole-idle-cut", "advantage"),
		Notes: []string{
			"six fused rounds: write(MM), local(MM), write(MIS), local(MIS), spill(MM), spill(MIS); a local search reads only its machine's owned key range, so it waits for that machine's write sub-round alone",
			"the whole-idle-cut column re-runs the same segment with ampc.Widen (whole-store conflict declarations); the advantage column is the idle reduction bought by the key-range spans",
			"results are required to be byte-identical to the standalone barrier-mode runs under both declarations",
			fmt.Sprintf("idle cuts are mean +/- std over %d independent runs per variant", pipelineRepeats),
		},
	}
	var rows []PipelineRow
	for _, ng := range opts.graphs() {
		row, err := pipelineRow(ng.name, ng.g, opts)
		if err != nil {
			return nil, rep, err
		}
		rows = append(rows, row)
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %10v %7d %14s %14s %9.1f%%+/-%4.1f %9.1f%%+/-%4.1f %9.1f%%",
			row.Graph, row.Identical, row.PipelinedRounds,
			row.BarrierSim.Round(10*time.Microsecond), row.PipelineSim.Round(10*time.Microsecond),
			row.RangedIdleReductionMeanPct, row.RangedIdleReductionStdPct,
			row.WholeIdleReductionMeanPct, row.WholeIdleReductionStdPct,
			row.RangedAdvantagePct))
	}
	return rows, rep, nil
}

// fusedPipelineRun executes one fused MIS+MM pipeline segment on a fresh
// runtime and returns its outputs.  With widen set the rounds' conflict
// declarations are stripped to whole stores (ampc.Widen) — same bodies, same
// work, coarser scheduling.
func fusedPipelineRun(g *graph.Graph, cfg ampc.Config, widen bool) (outputs, ampc.Stats, error) {
	rt := ampc.New(cfg)
	defer rt.Close()
	misPlan, err := mis.NewPlan(rt, g)
	if err != nil {
		return outputs{}, ampc.Stats{}, err
	}
	mmPlan, err := matching.NewPlan(rt, g)
	if err != nil {
		return outputs{}, ampc.Stats{}, err
	}
	mr, qr := misPlan.Rounds(), mmPlan.Rounds()
	// Software-pipelined arrangement: MM's write+local first, then MIS's
	// write+local, then both spill passes.  The hub machine straggles in
	// MM's local round, so its MIS write lands late; whole-store
	// declarations re-propagate that straggle through the MIS store into
	// every machine's local round, while the key-range declarations confine
	// it to the hub's own range — that scheduling difference is what the
	// ranged-vs-whole comparison measures.
	rounds := []ampc.Round{qr[0], qr[1], mr[0], mr[1], qr[2], mr[2]}
	if widen {
		rounds = ampc.Widen(rounds)
	}
	if err := rt.RunPipeline(rounds); err != nil {
		return outputs{}, ampc.Stats{}, err
	}
	return outputs{InMIS: misPlan.InMIS, Mate: mmPlan.Matching.Mate}, rt.Stats(), nil
}

func pipelineRow(name string, g *graph.Graph, opts Options) (PipelineRow, error) {
	row := PipelineRow{Graph: name, Identical: true, Repeats: pipelineRepeats}

	// Standalone barrier-mode runs: the reference outputs.
	cfg := opts.ampcConfig()
	cfg.Pipeline = false
	in := &inputs{g: g}
	ref, err := in.runValid(cfg, "MIS", "MM")
	if err != nil {
		return row, err
	}

	cfgOn := cfg
	cfgOn.Pipeline = true
	var ranged, whole []float64
	for i := 0; i < pipelineRepeats; i++ {
		out, st, err := fusedPipelineRun(g, cfgOn, false)
		if err != nil {
			return row, err
		}
		row.Identical = row.Identical && out.Matches(ref, in)
		ranged = append(ranged, safeReductionPct(float64(st.BarrierIdle), float64(st.PipelineIdle)))
		// The duration columns report the last ranged run's schedule.
		row.PipelinedRounds = st.PipelinedRounds
		row.BarrierSim = st.BarrierSim
		row.PipelineSim = st.PipelineSim
		row.SimDelta = st.BarrierSim - st.PipelineSim
		row.SimSpeedup = safeRatio(float64(st.BarrierSim), float64(st.PipelineSim))
		row.BarrierIdle = st.BarrierIdle
		row.PipelineIdle = st.PipelineIdle

		out, st, err = fusedPipelineRun(g, cfgOn, true)
		if err != nil {
			return row, err
		}
		row.Identical = row.Identical && out.Matches(ref, in)
		whole = append(whole, safeReductionPct(float64(st.BarrierIdle), float64(st.PipelineIdle)))
	}
	row.RangedIdleReductionMeanPct, row.RangedIdleReductionStdPct = meanStd(ranged)
	row.WholeIdleReductionMeanPct, row.WholeIdleReductionStdPct = meanStd(whole)
	row.IdleReductionPct = row.RangedIdleReductionMeanPct
	row.RangedAdvantagePct = row.RangedIdleReductionMeanPct - row.WholeIdleReductionMeanPct
	row.GateFloorPct = row.RangedIdleReductionMeanPct - 3*row.RangedIdleReductionStdPct - 0.01
	return row, nil
}

// pipelineGates projects a row onto the gated metrics: byte-identity,
// the ranged idle-reduction mean against its variance-derived floor, and
// the ranged-over-whole advantage, which must stay positive.
func pipelineGates(row PipelineRow) []GateRow {
	return []GateRow{identicalRow(row.Graph, row.Identical),
		gateRow(row.Graph, "ranged_idle_reduction_mean_pct", GateFloor, row.RangedIdleReductionMeanPct).
			spread(row.RangedIdleReductionStdPct, row.Repeats, row.GateFloorPct),
		gateRow(row.Graph, "ranged_advantage_pct", GatePositive, row.RangedAdvantagePct),
		gateRow(row.Graph, "whole_idle_reduction_mean_pct", GateInfo, row.WholeIdleReductionMeanPct).
			spread(row.WholeIdleReductionStdPct, row.Repeats, 0),
	}
}
