package bench

import (
	"fmt"
	"testing"

	"ampcgraph/internal/ampc"
)

// visitCounts is the request-level fingerprint of a run: with one thread per
// machine the exact sequence of key-value requests is deterministic, so
// pipelined and barrier executions must agree on every counter, not just on
// the outputs.
type visitCounts struct {
	Reads, Writes, ShardVisits int64
}

func countsOf(st ampc.Stats) visitCounts {
	return visitCounts{Reads: st.KVReads, Writes: st.KVWrites, ShardVisits: st.KVShardVisits}
}

// TestPipelineEquivalenceAllFiveAlgorithms is the acceptance property of the
// pipelined scheduler: every core algorithm must produce byte-identical,
// oracle-valid outputs — and, with one thread per machine, identical visit
// counts — with round pipelining on and off, across seeds and all three
// placement policies (hash, range-owner, degree-weighted ownership).
// Pipelining only reorders which machine works when; any divergence is a
// scheduler bug.
func TestPipelineEquivalenceAllFiveAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five algorithms twice per configuration")
	}
	type cfgCase struct {
		seed      int64
		placement string
		batch     bool
	}
	var cases []cfgCase
	for _, seed := range []int64{1, 2, 3} {
		for _, placement := range []string{ampc.PlacementHash, ampc.PlacementOwnerAffine, ampc.PlacementWeighted} {
			// Exercise the batched lock-step rounds on one seed per
			// placement; the single-key rounds on the others.
			cases = append(cases, cfgCase{seed: seed, placement: placement, batch: seed == 2})
		}
	}
	for _, tc := range cases {
		base := ampc.Config{
			Machines:    6,
			Threads:     1, // deterministic request sequence per machine
			EnableCache: true,
			Batch:       tc.batch,
			Placement:   tc.placement,
			Seed:        tc.seed,
		}
		barrier := base
		barrier.Pipeline = false
		pipelined := base
		pipelined.Pipeline = true

		in := okInputs(tc.seed, 2_000+300*int(tc.seed))
		off := mustRun(t, in, barrier)
		on := mustRun(t, in, pipelined)
		mustMatch(t, in, off, off, fmt.Sprintf("%+v at barriers", tc))
		mustMatch(t, in, on, off, fmt.Sprintf("%+v pipelined", tc))
		for _, algo := range fiveAlgos {
			if a, b := countsOf(off.Stats[algo]), countsOf(on.Stats[algo]); a != b {
				t.Errorf("%+v: %s visit counts differ: %+v vs %+v", tc, algo, a, b)
			}
		}
	}
}

// TestPipelineComparison guards the acceptance bar of the pipelined
// scheduler: on a skewed (hub) dataset the fused MIS+MM pipeline must report
// a straggler-idle reduction over the barrier schedule under the key-range
// declarations, a strictly larger reduction than the whole-store (Widen)
// variant, a non-negative modeled-time delta, and outputs identical to the
// standalone runs under both declarations.
func TestPipelineComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline comparison runs MIS and MM many times")
	}
	rows, rep, err := PipelineComparison(Options{Datasets: []string{"CW"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows %d, want 1", len(rows))
	}
	row := rows[0]
	if !row.Identical {
		t.Error("fused pipelined outputs differ from the standalone barrier runs")
	}
	if row.PipelinedRounds != 6 {
		t.Errorf("pipelined rounds %d, want 6 (write, local, spill x MIS, MM)", row.PipelinedRounds)
	}
	if row.Repeats != pipelineRepeats {
		t.Errorf("repeats %d, want %d", row.Repeats, pipelineRepeats)
	}
	if row.IdleReductionPct <= 0 {
		t.Errorf("straggler-idle reduction %.2f%%, want > 0%%", row.IdleReductionPct)
	}
	if row.RangedAdvantagePct <= 0 {
		t.Errorf("ranged advantage %.2f%% over whole-store declarations, want > 0%%",
			row.RangedAdvantagePct)
	}
	if row.GateFloorPct > row.RangedIdleReductionMeanPct {
		t.Errorf("gate floor %.2f%% above the mean %.2f%%",
			row.GateFloorPct, row.RangedIdleReductionMeanPct)
	}
	if row.SimDelta < 0 || row.PipelineSim > row.BarrierSim {
		t.Errorf("pipelined schedule modeled slower than barrier: %v vs %v", row.PipelineSim, row.BarrierSim)
	}
	if row.BarrierIdle < row.PipelineIdle {
		t.Errorf("pipeline increased idle: %v -> %v", row.BarrierIdle, row.PipelineIdle)
	}
	if len(rep.Rows) != len(rows) {
		t.Fatalf("report rows %d != data rows %d", len(rep.Rows), len(rows))
	}
}
