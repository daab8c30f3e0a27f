package bench

import (
	"strings"
	"testing"
)

// Row constructors for the gate fixtures: the production constructors, with
// the experiment name Experiment.Run would stamp.
func of(exp string, r GateRow) GateRow {
	r.Experiment = exp
	return r
}

func identicalGate(exp, key string, same bool) GateRow { return of(exp, identicalRow(key, same)) }

func fracGate(exp, key, metric string, v float64) GateRow {
	return of(exp, gateRow(key, metric, GateFrac, v))
}

func floorGate(exp, key, metric string, mean, std, bound float64) GateRow {
	return of(exp, gateRow(key, metric, GateFloor, mean).spread(std, 3, bound))
}

func ceilGate(exp, key, metric string, mean, std, bound float64) GateRow {
	return of(exp, gateRow(key, metric, GateCeil, mean).spread(std, 3, bound))
}

func positiveGate(exp, key, metric string, v float64) GateRow {
	return of(exp, gateRow(key, metric, GatePositive, v))
}

func zeroGate(exp, key, metric string, v float64) GateRow {
	return of(exp, gateRow(key, metric, GateZero, v))
}

// TestCheck covers every way a gate of every gated experiment can fail —
// under the metric names the experiments report — and the boundaries that
// must pass: zero baselines, exactly-on-threshold values, info rows.
func TestCheck(t *testing.T) {
	cases := []struct {
		name            string
		baseline, fresh []GateRow
		failures        int
		lines           []string // substrings the output must contain
	}{
		{
			// A zero (or negative) baseline metric has nothing to regress
			// from: whatever the fresh run measures, the gate must not fail.
			name:     "zero baseline never fails",
			baseline: []GateRow{fracGate("batch", "OK/MIS", "visit_reduction", 0), fracGate("batch", "OK/MIS", "sim_speedup", 0)},
			fresh:    []GateRow{fracGate("batch", "OK/MIS", "visit_reduction", 0), fracGate("batch", "OK/MIS", "sim_speedup", 0)},
		},
		{
			name:     "missing row fails",
			baseline: []GateRow{fracGate("batch", "OK/MIS", "visit_reduction", 2), fracGate("batch", "TW/MM", "visit_reduction", 2)},
			fresh:    []GateRow{fracGate("batch", "OK/MIS", "visit_reduction", 2)},
			failures: 1,
			lines:    []string{"TW/MM", "missing from fresh run"},
		},
		{
			// With 10% tolerance the floor is 0.90 x baseline; a fresh value
			// landing exactly on the floor passes, one step below fails.
			name:     "exactly at the fractional threshold passes",
			baseline: []GateRow{fracGate("batch", "OK/MIS", "visit_reduction", 2.0), fracGate("batch", "OK/MIS", "sim_speedup", 1.0)},
			fresh:    []GateRow{fracGate("batch", "OK/MIS", "visit_reduction", 1.8), fracGate("batch", "OK/MIS", "sim_speedup", 0.9)},
		},
		{
			name:     "below the fractional threshold fails",
			baseline: []GateRow{fracGate("batch", "OK/MIS", "visit_reduction", 2.0), fracGate("batch", "OK/MIS", "sim_speedup", 1.0)},
			fresh:    []GateRow{fracGate("batch", "OK/MIS", "visit_reduction", 1.79), fracGate("batch", "OK/MIS", "sim_speedup", 0.9)},
			failures: 1,
			lines:    []string{"visit_reduction", "REGRESSED"},
		},
		{
			name:     "non-identical fails",
			baseline: []GateRow{identicalGate("batch", "OK/MIS", true)},
			fresh:    []GateRow{identicalGate("batch", "OK/MIS", false)},
			failures: 1,
			lines:    []string{"batch OK/MIS", "identical", "REGRESSED"},
		},

		// rebalance: fractional load-imbalance reduction, no zero-key machine.
		{
			name:     "rebalance at the floor passes",
			baseline: []GateRow{fracGate("rebalance", "CW", "load_imbalance_reduction", 2.0), zeroGate("rebalance", "CW", "zero_key_machines", 0)},
			fresh:    []GateRow{fracGate("rebalance", "CW", "load_imbalance_reduction", 1.8), zeroGate("rebalance", "CW", "zero_key_machines", 0)},
		},
		{
			name:     "rebalance reduction regressed",
			baseline: []GateRow{fracGate("rebalance", "CW", "load_imbalance_reduction", 2.0)},
			fresh:    []GateRow{fracGate("rebalance", "CW", "load_imbalance_reduction", 1.79)},
			failures: 1,
			lines:    []string{"load_imbalance_reduction"},
		},
		{
			// A zero-key machine is an outright failure, whatever the reduction.
			name:     "rebalance zero-key machine",
			baseline: []GateRow{fracGate("rebalance", "CW", "load_imbalance_reduction", 2.0), zeroGate("rebalance", "CW", "zero_key_machines", 0)},
			fresh:    []GateRow{fracGate("rebalance", "CW", "load_imbalance_reduction", 3.0), zeroGate("rebalance", "CW", "zero_key_machines", 1)},
			failures: 1,
			lines:    []string{"zero_key_machines"},
		},

		// backend: identical to the in-memory reference, disk keeps spilling.
		{
			name:     "backend healthy",
			baseline: []GateRow{identicalGate("backend", "OK/disk", true), fracGate("backend", "OK/disk", "spill_ratio", 2.0), identicalGate("backend", "OK/rpc", true)},
			fresh:    []GateRow{identicalGate("backend", "OK/disk", true), fracGate("backend", "OK/disk", "spill_ratio", 1.8), identicalGate("backend", "OK/rpc", true)},
		},
		{
			name:     "backend diverged from the in-memory reference",
			baseline: []GateRow{identicalGate("backend", "OK/disk", true), identicalGate("backend", "OK/rpc", true)},
			fresh:    []GateRow{identicalGate("backend", "OK/disk", true), identicalGate("backend", "OK/rpc", false)},
			failures: 1,
			lines:    []string{"backend OK/rpc"},
		},
		{
			name:     "backend spill ratio collapsed",
			baseline: []GateRow{fracGate("backend", "OK/disk", "spill_ratio", 2.0)},
			fresh:    []GateRow{fracGate("backend", "OK/disk", "spill_ratio", 1.0)},
			failures: 1,
			lines:    []string{"spill_ratio"},
		},
		{
			name:     "backend rows missing",
			baseline: []GateRow{identicalGate("backend", "OK/disk", true), identicalGate("backend", "OK/rpc", true)},
			failures: 2,
			lines:    []string{"backend OK/disk", "backend OK/rpc"},
		},

		// pipeline: absolute variance-derived floor, positive ranged advantage.
		{
			// A fresh mean at the committed floor (40 - 3 x 2 = 34) passes,
			// whatever the fractional tolerance would say.
			name:     "pipeline at the variance floor passes",
			baseline: []GateRow{floorGate("pipeline", "CW", "ranged_idle_reduction_mean_pct", 40, 2, 34), positiveGate("pipeline", "CW", "ranged_advantage_pct", 5)},
			fresh:    []GateRow{floorGate("pipeline", "CW", "ranged_idle_reduction_mean_pct", 34, 3, 25), positiveGate("pipeline", "CW", "ranged_advantage_pct", 4)},
		},
		{
			// Below the committed floor fails; the fresh row's own (lower)
			// bound is not consulted.
			name:     "pipeline below the variance floor",
			baseline: []GateRow{floorGate("pipeline", "CW", "ranged_idle_reduction_mean_pct", 40, 2, 34)},
			fresh:    []GateRow{floorGate("pipeline", "CW", "ranged_idle_reduction_mean_pct", 33.9, 3, 24.9)},
			failures: 1,
			lines:    []string{"ranged_idle_reduction_mean_pct", "(floor)"},
		},
		{
			name:     "pipeline lost the ranged advantage",
			baseline: []GateRow{positiveGate("pipeline", "CW", "ranged_advantage_pct", 5)},
			fresh:    []GateRow{positiveGate("pipeline", "CW", "ranged_advantage_pct", 0)},
			failures: 1,
			lines:    []string{"ranged_advantage_pct"},
		},
		{
			name:     "pipeline diverged",
			baseline: []GateRow{identicalGate("pipeline", "CW", true)},
			fresh:    []GateRow{identicalGate("pipeline", "CW", false)},
			failures: 1,
		},
		{
			name:     "pipeline row missing",
			baseline: []GateRow{identicalGate("pipeline", "CW", true)},
			failures: 1,
			lines:    []string{"pipeline CW"},
		},

		// locality: fractional remote-read reduction.
		{
			name:     "locality at the floor passes",
			baseline: []GateRow{fracGate("locality", "OK/MIS", "remote_reduction", 2.0)},
			fresh:    []GateRow{fracGate("locality", "OK/MIS", "remote_reduction", 1.8)},
		},
		{
			name:     "locality reduction regressed",
			baseline: []GateRow{fracGate("locality", "OK/MIS", "remote_reduction", 2.0)},
			fresh:    []GateRow{fracGate("locality", "OK/MIS", "remote_reduction", 1.79)},
			failures: 1,
			lines:    []string{"remote_reduction"},
		},
		{
			name:     "locality diverged",
			baseline: []GateRow{identicalGate("locality", "OK/MIS", true), fracGate("locality", "OK/MIS", "remote_reduction", 2.0)},
			fresh:    []GateRow{identicalGate("locality", "OK/MIS", false), fracGate("locality", "OK/MIS", "remote_reduction", 2.0)},
			failures: 1,
		},
		{
			name:     "locality row missing",
			baseline: []GateRow{fracGate("locality", "OK/MIS", "remote_reduction", 2.0)},
			failures: 1,
			lines:    []string{"locality OK/MIS"},
		},

		// adaptive: variance-derived floor on the improvement mean.
		{
			name:     "adaptive at the variance floor passes",
			baseline: []GateRow{floorGate("adaptive", "CW", "improvement_mean_pct", 60, 4, 48)},
			fresh:    []GateRow{floorGate("adaptive", "CW", "improvement_mean_pct", 48, 5, 33)},
		},
		{
			name:     "adaptive below the variance floor",
			baseline: []GateRow{floorGate("adaptive", "CW", "improvement_mean_pct", 60, 4, 48)},
			fresh:    []GateRow{floorGate("adaptive", "CW", "improvement_mean_pct", 47.9, 5, 32.9)},
			failures: 1,
			lines:    []string{"improvement_mean_pct"},
		},
		{
			name:     "adaptive diverged from the static run",
			baseline: []GateRow{identicalGate("adaptive", "CW", true)},
			fresh:    []GateRow{identicalGate("adaptive", "CW", false)},
			failures: 1,
		},
		{
			name:     "adaptive row missing",
			baseline: []GateRow{floorGate("adaptive", "CW", "improvement_mean_pct", 60, 4, 48)},
			failures: 1,
			lines:    []string{"adaptive CW"},
		},

		// chaos: a ceiling (smaller is better), zero failed runs, every
		// recovery tier exercised.
		{
			// At the committed ceiling (8 + 3 x 2 + 1 = 15) passes.
			name:     "chaos at the ceiling passes",
			baseline: []GateRow{ceilGate("chaos", "OK", "overhead_mean_pct", 8, 2, 15), positiveGate("chaos", "OK", "retries", 10)},
			fresh:    []GateRow{ceilGate("chaos", "OK", "overhead_mean_pct", 15, 3, 25), positiveGate("chaos", "OK", "retries", 10)},
		},
		{
			name:     "chaos above the ceiling",
			baseline: []GateRow{ceilGate("chaos", "OK", "overhead_mean_pct", 8, 2, 15)},
			fresh:    []GateRow{ceilGate("chaos", "OK", "overhead_mean_pct", 15.1, 3, 25.1)},
			failures: 1,
			lines:    []string{"overhead_mean_pct", "(ceil)"},
		},
		{
			name:     "chaos diverged from the fault-free run",
			baseline: []GateRow{identicalGate("chaos", "OK", true)},
			fresh:    []GateRow{identicalGate("chaos", "OK", false)},
			failures: 1,
		},
		{
			// The fault budget must absorb every injected failure.
			name:     "chaos run failed",
			baseline: []GateRow{zeroGate("chaos", "OK", "failed_runs", 0)},
			fresh:    []GateRow{zeroGate("chaos", "OK", "failed_runs", 1)},
			failures: 1,
			lines:    []string{"failed_runs"},
		},
		{
			// A zero counter means the schedule no longer reaches that tier.
			name:     "chaos recovery tier unexercised",
			baseline: []GateRow{positiveGate("chaos", "OK", "retries", 10), positiveGate("chaos", "OK", "failovers", 5), positiveGate("chaos", "OK", "subround_retries", 2)},
			fresh:    []GateRow{positiveGate("chaos", "OK", "retries", 10), positiveGate("chaos", "OK", "failovers", 5), positiveGate("chaos", "OK", "subround_retries", 0)},
			failures: 1,
			lines:    []string{"subround_retries"},
		},
		{
			name:     "chaos row missing",
			baseline: []GateRow{identicalGate("chaos", "OK", true)},
			failures: 1,
			lines:    []string{"chaos OK"},
		},

		// serving: variance-derived throughput floor, plan cache must hit.
		{
			name:     "serving at the variance floor passes",
			baseline: []GateRow{floorGate("serving", "CW", "throughput_mean_x", 2.0, 0.1, 1.7), positiveGate("serving", "CW", "plan_cache_hits", 7)},
			fresh:    []GateRow{floorGate("serving", "CW", "throughput_mean_x", 1.7, 0.2, 1.1), positiveGate("serving", "CW", "plan_cache_hits", 7)},
		},
		{
			name:     "serving below the variance floor",
			baseline: []GateRow{floorGate("serving", "CW", "throughput_mean_x", 2.0, 0.1, 1.7)},
			fresh:    []GateRow{floorGate("serving", "CW", "throughput_mean_x", 1.69, 0.2, 1.09)},
			failures: 1,
			lines:    []string{"throughput_mean_x"},
		},
		{
			name:     "serving diverged from the one-shot runs",
			baseline: []GateRow{identicalGate("serving", "CW", true)},
			fresh:    []GateRow{identicalGate("serving", "CW", false)},
			failures: 1,
		},
		{
			name:     "serving plan cache stopped hitting",
			baseline: []GateRow{positiveGate("serving", "CW", "plan_cache_hits", 7)},
			fresh:    []GateRow{positiveGate("serving", "CW", "plan_cache_hits", 0)},
			failures: 1,
			lines:    []string{"plan_cache_hits"},
		},
		{
			name:     "serving row missing",
			baseline: []GateRow{floorGate("serving", "CW", "throughput_mean_x", 2.0, 0.1, 1.7)},
			failures: 1,
			lines:    []string{"serving CW"},
		},

		// A metric the fresh run reports but the committed file does not
		// know is listed, not dropped, and does not fail.
		{
			name:     "fresh row with no committed baseline is info",
			baseline: []GateRow{fracGate("batch", "OK/MIS", "visit_reduction", 2)},
			fresh:    []GateRow{fracGate("batch", "OK/MIS", "visit_reduction", 2), positiveGate("batch", "OK/MIS", "brand_new_metric", 0)},
			lines:    []string{"brand_new_metric", "(info)", "no committed baseline"},
		},
		{
			name:     "info rows never fail",
			baseline: []GateRow{of("chaos", gateRow("OK", "hedges", GateInfo, 500))},
			fresh:    []GateRow{of("chaos", gateRow("OK", "hedges", GateInfo, 0))},
			lines:    []string{"hedges", "(info)"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lines, failures := Check(tc.baseline, tc.fresh, 0.10)
			out := strings.Join(lines, "\n")
			if failures != tc.failures {
				t.Fatalf("%d failures, want %d\n%s", failures, tc.failures, out)
			}
			for _, want := range tc.lines {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestCheckOneLinePerFailure is the gate-parity fixture: one metric pushed
// past its bound, one identical=false, one missing row and one zeroed
// recovery counter fail with exactly one line each, and the healthy rows
// beside them pass.
func TestCheckOneLinePerFailure(t *testing.T) {
	baseline := []GateRow{
		identicalGate("chaos", "OK", true),
		ceilGate("chaos", "OK", "overhead_mean_pct", 0.04, 0.04, 1.17),
		positiveGate("chaos", "OK", "failovers", 639),
		positiveGate("chaos", "OK", "retries", 406),
		fracGate("batch", "TW/MSF", "visit_reduction", 5.47),
		fracGate("batch", "OK/MM", "visit_reduction", 5.62),
	}
	fresh := []GateRow{
		identicalGate("chaos", "OK", false),                            // diverged
		ceilGate("chaos", "OK", "overhead_mean_pct", 1.18, 0.04, 1.30), // past the committed ceiling
		positiveGate("chaos", "OK", "failovers", 0),                    // zeroed recovery counter
		positiveGate("chaos", "OK", "retries", 400),
		// batch TW/MSF visit_reduction missing
		fracGate("batch", "OK/MM", "visit_reduction", 5.60),
	}
	lines, failures := Check(baseline, fresh, 0.10)
	if failures != 4 {
		t.Fatalf("%d failures, want 4\n%s", failures, strings.Join(lines, "\n"))
	}
	flagged := 0
	for _, line := range lines {
		if strings.Contains(line, "REGRESSED") || strings.Contains(line, "missing from fresh run") {
			flagged++
		}
	}
	if flagged != 4 {
		t.Fatalf("%d flagged lines, want one per failure (4)\n%s", flagged, strings.Join(lines, "\n"))
	}
}

// TestMergeBest: a measured metric keeps its best run by direction together
// with that run's spread and bound, and a must-hold gate is poisoned by any
// run in which it did not hold.
func TestMergeBest(t *testing.T) {
	run1 := []GateRow{
		fracGate("batch", "OK/MIS", "visit_reduction", 1.5),
		fracGate("batch", "OK/MIS", "sim_speedup", 2.0),
		floorGate("pipeline", "CW", "ranged_idle_reduction_mean_pct", 30, 5, 15),
		ceilGate("chaos", "OK", "overhead_mean_pct", 12, 4, 25),
		identicalGate("serving", "CW", true),
		positiveGate("serving", "CW", "plan_cache_hits", 7),
		zeroGate("chaos", "OK", "failed_runs", 0),
	}
	run2 := []GateRow{
		fracGate("batch", "OK/MIS", "visit_reduction", 2.5),
		fracGate("batch", "OK/MIS", "sim_speedup", 1.0),
		floorGate("pipeline", "CW", "ranged_idle_reduction_mean_pct", 45, 1, 42),
		ceilGate("chaos", "OK", "overhead_mean_pct", 7, 1, 11),
		identicalGate("serving", "CW", true),
		positiveGate("serving", "CW", "plan_cache_hits", 9),
		zeroGate("chaos", "OK", "failed_runs", 0),
	}
	best := MergeBest(run1, run2)
	if len(best) != len(run1) {
		t.Fatalf("merged %d rows, want %d", len(best), len(run1))
	}
	for i, want := range []GateRow{
		run2[0], // higher is better: 2.5 over 1.5
		run1[1], // each metric folds on its own: 2.0 over 1.0
		run2[2], // the best mean travels with its own std and floor
		run2[3], // lower is better: 7 over 12, with its std and ceiling
		run1[4],
		run1[5], // must hold in every run: the worse count (7) is kept
		run1[6],
	} {
		if best[i] != want {
			t.Errorf("row %d merged to %+v, want %+v", i, best[i], want)
		}
	}

	// A third run that is better on every metric but diverged, failed a job
	// and scored no cache hits poisons the must-hold rows only.
	bad := []GateRow{
		identicalGate("serving", "CW", false),
		positiveGate("serving", "CW", "plan_cache_hits", 0),
		zeroGate("chaos", "OK", "failed_runs", 1),
		ceilGate("chaos", "OK", "overhead_mean_pct", 5, 1, 9),
	}
	byID := make(map[string]GateRow)
	for _, r := range MergeBest(best, bad) {
		byID[r.id()] = r
	}
	if byID["serving CW identical"].Value != 0 {
		t.Error("a non-identical run did not poison the merged row")
	}
	if byID["serving CW plan_cache_hits"].Value != 0 {
		t.Error("a hitless run did not poison the merged row")
	}
	if byID["chaos OK failed_runs"].Value != 1 {
		t.Error("a failed run did not poison the merged row")
	}
	if got := byID["chaos OK overhead_mean_pct"]; got.Value != 5 || got.Bound != 9 {
		t.Errorf("lowest overhead not kept with its ceiling: %+v", got)
	}
	if _, failures := Check(best, MergeBest(best, bad), 0.10); failures != 3 {
		t.Errorf("poisoned merge: %d failures, want 3", failures)
	}
}
