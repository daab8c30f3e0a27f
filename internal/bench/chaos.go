package bench

import (
	"fmt"
	"time"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/gen"
)

// The chaos experiment runs all five core algorithms under a pinned,
// deterministic fault schedule — transient store errors, latency spikes,
// whole-shard crash windows, torn disk tails and dropped rpc connections
// (dht.FaultPlan) — with the full recovery stack enabled: store-level retry,
// failover and hedging (dht.RetryPolicy), synchronous replication, and
// sub-round re-execution in the runtime (ampc.Config.FaultBudget).  The
// headline claim is the fault-tolerance acceptance property: every chaotic
// run must produce output byte-identical to the fault-free run, with zero
// failed jobs; what chaos costs is reported as modeled-time overhead.

// chaosRepeats is the number of independent chaotic runs per dataset.  The
// fault schedule is deterministic per op identity, but goroutine scheduling
// moves which sub-round absorbs each injected fatal fault, so the recovery
// overhead carries run-to-run spread; the smoke gate derives its ceiling
// from it.
const chaosRepeats = 3

// chaosFaultBudget caps sub-round re-executions per algorithm run.  Injected
// fatal faults fire once per op identity, so the budget only needs to cover
// the (small, seed-determined) number of faulty identities each run reads.
const chaosFaultBudget = 256

// ChaosFaultPlan returns the pinned fault schedule shared by the "chaos"
// experiment and the equivalence suite: every fault class armed, at rates
// that keep recovery exercised on the laptop-scale stand-ins without
// drowning the run in backoff sleeps.
func ChaosFaultPlan(seed int64) *dht.FaultPlan {
	return &dht.FaultPlan{
		Seed:       seed,
		PTransient: 0.01,
		PFatal:     0.0005,
		PSpike:     0.001,
		Spike:      2 * time.Millisecond,
		// Crash thresholds are in injector read calls per shard, and batching
		// collapses whole fan-outs into single calls, so the windows open
		// early enough to fire on every store size the stand-ins produce.
		Crashes: []dht.ShardCrash{
			{Shard: 0, AfterReads: 30, RecoverReads: 120},
			{Shard: 1, AfterReads: 80, RecoverReads: 60},
		},
		TornTail: true,
		PDrop:    0.02,
	}
}

// ChaosRetryPolicy returns the store-level retry policy paired with
// ChaosFaultPlan: enough attempts to absorb every transient and drain the
// crash windows, short seeded backoffs, and a hedge timer under the spike
// duration so hedged batch reads cut the injected tail latency.
func ChaosRetryPolicy(seed int64) *dht.RetryPolicy {
	return &dht.RetryPolicy{
		MaxAttempts: 6,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
		HedgeAfter:  time.Millisecond,
		Seed:        seed,
	}
}

// chaosConfig arms cfg with the pinned fault schedule and the full recovery
// stack.
func chaosConfig(cfg ampc.Config) ampc.Config {
	cfg.Faults = ChaosFaultPlan(cfg.Seed)
	cfg.Retry = ChaosRetryPolicy(cfg.Seed)
	cfg.FaultBudget = chaosFaultBudget
	return cfg
}

// ChaosRow is one dataset of the fault-injection comparison: the five
// algorithms run clean once and chaosRepeats times under the pinned fault
// schedule.
type ChaosRow struct {
	Graph string `json:"graph"`
	// Identical reports whether every chaotic run's output was byte-identical
	// to the fault-free run's and valid — the acceptance property of the
	// recovery stack.
	Identical bool `json:"identical"`
	// FailedRuns counts algorithm runs that returned an error under chaos.
	// The fault budget must absorb every injected failure, so any value but
	// zero is a regression.
	FailedRuns int `json:"failed_runs"`
	// CleanSim is the summed modeled running time of the five algorithms
	// without faults, ChaosSim the slowest chaotic pass, OverheadPct its
	// recovery overhead (re-executed shares land their counters twice).
	CleanSim    time.Duration `json:"clean_sim_ns"`
	ChaosSim    time.Duration `json:"chaos_sim_ns"`
	OverheadPct float64       `json:"overhead_pct"`
	// OverheadMeanPct/StdPct summarize the overhead over the chaotic passes,
	// and GateCeilingPct = mean + 3 x std + 1 is the variance-derived
	// regression ceiling (the absolute pad covers near-zero spreads): a
	// ceiling, not a floor, because for overhead smaller is better.
	OverheadMeanPct float64 `json:"overhead_mean_pct"`
	OverheadStdPct  float64 `json:"overhead_std_pct"`
	GateCeilingPct  float64 `json:"gate_ceiling_pct"`
	// Recovery-tier counters summed over the chaotic passes: transient
	// faults absorbed by store-level retry, crash-window reads served by the
	// replica, batch reads rescued by a hedge, and sub-rounds re-executed by
	// the runtime.
	Retries         int64 `json:"retries"`
	Failovers       int64 `json:"failovers"`
	Hedges          int64 `json:"hedges"`
	SubroundRetries int   `json:"subround_retries"`
	// MinRetries, MinFailovers and MinSubroundRetries are the smallest
	// per-pass values; the gate requires them positive, proving the schedule
	// still exercises every recovery tier in every pass.
	MinRetries         int64 `json:"min_retries"`
	MinFailovers       int64 `json:"min_failovers"`
	MinSubroundRetries int   `json:"min_subround_retries"`
}

// ChaosComparison runs the five core algorithms on every dataset of opts,
// once fault-free and chaosRepeats times under the pinned fault schedule,
// verifying byte-identical, valid outputs and reporting the recovery
// overhead.  Both arms run with synchronous replication so the overhead
// isolates fault recovery, and with batching on so hedged batch reads are
// exercised.  Under chaos an algorithm error is counted in FailedRuns and
// the pass goes on, so the gate can still judge the rest.
func ChaosComparison(opts Options) ([]ChaosRow, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title: "Deterministic chaos: five algorithms under seeded fault injection",
		Header: fmt.Sprintf("%-8s %10s %8s %12s %12s %10s %9s %10s %8s %9s",
			"graph", "identical", "failed", "clean-sim", "chaos-sim", "overhead", "retries", "failovers", "hedges", "re-execs"),
		Notes: []string{
			"the fault schedule (dht.FaultPlan) injects transient errors, latency spikes, shard crash windows, torn disk tails and rpc connection drops, each decided by a pure hash of the plan seed and the op identity",
			"outputs are required to be byte-identical to the fault-free run: store-level retry/failover/hedging plus sub-round re-execution (ampc.Config.FaultBudget) absorb every injected fault",
			fmt.Sprintf("overhead is modeled-time cost of recovery, worst of %d chaotic runs; re-executed sub-rounds charge their counters twice", chaosRepeats),
		},
	}
	var rows []ChaosRow
	for _, ng := range opts.graphs() {
		cfg := opts.ampcConfig()
		cfg.Batch = true
		cfg.Replicate = true
		in := &inputs{g: ng.g, cycleG: gen.TwoCycles(2_500)}
		clean, err := in.runValid(cfg)
		if err != nil {
			return nil, rep, fmt.Errorf("%s clean reference: %w", ng.name, err)
		}
		row := ChaosRow{Graph: ng.name, Identical: true, CleanSim: recoveryTotals(clean).Sim}
		overheadPct := func(sim time.Duration) float64 {
			if row.CleanSim <= 0 {
				return 0
			}
			return 100 * float64(sim-row.CleanSim) / float64(row.CleanSim)
		}
		var overheads []float64
		for pass := 0; pass < chaosRepeats; pass++ {
			chaos, _ := in.run(chaosConfig(cfg)) // a failed algorithm is counted below, not fatal
			t := recoveryTotals(chaos)
			failed := len(fiveAlgos) - len(chaos.Stats) // an algorithm that errored left no stats
			row.Identical = row.Identical && failed == 0 && chaos.Matches(clean, in)
			row.FailedRuns += failed
			row.ChaosSim = max(row.ChaosSim, t.Sim)
			overheads = append(overheads, overheadPct(t.Sim))
			row.Retries += t.KVRetries
			row.Failovers += t.KVFailovers
			row.Hedges += t.KVHedges
			row.SubroundRetries += t.SubroundRetries
			if pass == 0 {
				row.MinRetries, row.MinFailovers, row.MinSubroundRetries = t.KVRetries, t.KVFailovers, t.SubroundRetries
			}
			row.MinRetries = min(row.MinRetries, t.KVRetries)
			row.MinFailovers = min(row.MinFailovers, t.KVFailovers)
			row.MinSubroundRetries = min(row.MinSubroundRetries, t.SubroundRetries)
		}
		row.OverheadPct = overheadPct(row.ChaosSim)
		row.OverheadMeanPct, row.OverheadStdPct = meanStd(overheads)
		row.GateCeilingPct = row.OverheadMeanPct + 3*row.OverheadStdPct + 1
		rows = append(rows, row)
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %10v %8d %12s %12s %9.2f%% %9d %10d %8d %9d",
			row.Graph, row.Identical, row.FailedRuns,
			row.CleanSim.Round(time.Millisecond), row.ChaosSim.Round(time.Millisecond),
			row.OverheadPct, row.Retries, row.Failovers, row.Hedges, row.SubroundRetries))
	}
	return rows, rep, nil
}

// recoveryTotals sums the modeled time and the recovery-tier counters over
// the algorithms of one pass.
func recoveryTotals(o outputs) (t ampc.Stats) {
	for _, st := range o.Stats {
		t.Sim += st.Sim
		t.KVRetries += st.KVRetries
		t.KVFailovers += st.KVFailovers
		t.KVHedges += st.KVHedges
		t.SubroundRetries += st.SubroundRetries
	}
	return t
}

// chaosGates projects a row onto the gated metrics.  Identical and
// FailedRuns gate absolutely (the recovery stack either preserves outputs or
// it does not), each recovery tier must have fired in every pass, and the
// overhead mean is held under its variance-derived ceiling.
func chaosGates(row ChaosRow) []GateRow {
	return []GateRow{identicalRow(row.Graph, row.Identical),
		gateRow(row.Graph, "failed_runs", GateZero, float64(row.FailedRuns)),
		gateRow(row.Graph, "overhead_mean_pct", GateCeil, row.OverheadMeanPct).
			spread(row.OverheadStdPct, chaosRepeats, row.GateCeilingPct),
		gateRow(row.Graph, "retries", GatePositive, float64(row.MinRetries)),
		gateRow(row.Graph, "failovers", GatePositive, float64(row.MinFailovers)),
		gateRow(row.Graph, "subround_retries", GatePositive, float64(row.MinSubroundRetries)),
		gateRow(row.Graph, "hedges", GateInfo, float64(row.Hedges)),
	}
}
