package bench

import "fmt"

// Gate kinds: how Check holds a fresh GateRow against the committed one.
const (
	// GateIdentical: Value is 1 when two runs' outputs were byte-identical
	// and valid, 0 otherwise; it must be 1 in every run.
	GateIdentical = "identical"
	// GateFrac: the fresh Value may not fall below (1 - tolerance) x the
	// committed Value.  A committed Value <= 0 has nothing to regress from
	// and cannot fail; landing exactly on the threshold passes.
	GateFrac = "frac"
	// GateFloor / GateCeil: the fresh Value may not fall below / rise above
	// the committed Bound — an absolute, variance-derived limit (mean -/+
	// 3 x std and a fixed pad), not the fractional tolerance, because the
	// metric's run-to-run noise is already measured into it.
	GateFloor = "floor"
	GateCeil  = "ceil"
	// GatePositive / GateZero: the Value must be > 0 / == 0 in every run (a
	// recovery tier still fires; no run failed, no machine owns zero keys).
	GatePositive = "positive"
	GateZero     = "zero"
	// GateInfo: recorded beside the gated rows, never fails.
	GateInfo = "info"
)

// Directions: which way a metric improves.
const (
	Higher = "higher"
	Lower  = "lower"
)

// GateRow is the one schema every gated experiment reports in: a single
// metric of a single experiment row, with how to fold it across runs
// (Direction) and how to hold it against the committed snapshot (Gate,
// Bound).  BENCH_smoke.json is a flat list of these.
type GateRow struct {
	Experiment string  `json:"experiment"`
	Key        string  `json:"key"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Std        float64 `json:"std,omitempty"`
	Repeats    int     `json:"repeats,omitempty"`
	Direction  string  `json:"direction"`
	Gate       string  `json:"gate"`
	Bound      float64 `json:"bound,omitempty"`
}

func (r GateRow) id() string { return r.Experiment + " " + r.Key + " " + r.Metric }

// mustHold reports whether the gate is a property of every run rather than
// a measurement: those fold to their worst value across runs.
func (r GateRow) mustHold() bool {
	return r.Gate == GateIdentical || r.Gate == GatePositive || r.Gate == GateZero
}

func (r GateRow) betterThan(o GateRow) bool {
	if r.Direction == Lower {
		return r.Value < o.Value
	}
	return r.Value > o.Value
}

// gateRow is the (key, metric) row under the given gate kind.  The direction
// follows from the kind: a ceiling and a must-be-zero count improve
// downward, everything else upward.
func gateRow(key, metric, gate string, value float64) GateRow {
	row := GateRow{Key: key, Metric: metric, Value: value, Direction: Higher, Gate: gate}
	if gate == GateCeil || gate == GateZero {
		row.Direction = Lower
	}
	return row
}

// spread attaches the repeats behind a mean, their sample standard deviation
// and the floor or ceiling derived from them.
func (r GateRow) spread(std float64, repeats int, bound float64) GateRow {
	r.Std, r.Repeats, r.Bound = std, repeats, bound
	return r
}

// identicalRow is the GateIdentical row of key.
func identicalRow(key string, identical bool) GateRow {
	row := gateRow(key, "identical", GateIdentical, 0)
	if identical {
		row.Value = 1
	}
	return row
}

// MergeBest folds several measurement runs into one row per (experiment,
// key, metric), in first-seen order.  The measured metrics depend slightly
// on goroutine scheduling (racy cache fills change which lookups reach the
// store), so each keeps its best run by Direction — with that run's Std and
// Bound — and noise cannot fail the gate while a real regression persists
// across every run.  The must-hold gates keep their worst run instead: one
// divergent, failed or unexercised run poisons the merged row.
func MergeBest(runs ...[]GateRow) []GateRow {
	var best []GateRow
	at := make(map[string]int)
	for _, rows := range runs {
		for _, r := range rows {
			i, seen := at[r.id()]
			if !seen {
				at[r.id()] = len(best)
				best = append(best, r)
			} else if r.betterThan(best[i]) != r.mustHold() {
				best[i] = r
			}
		}
	}
	return best
}

// Check holds the fresh rows against the committed baseline.  It returns one
// line per row and the number of failures: baseline rows missing from the
// fresh run, and rows whose gate (see the Gate constants; tolerance applies
// to GateFrac only) does not hold.  The gate kind and bound are the
// committed row's.  A fresh row with no committed baseline is listed as
// info, so a newly added metric is visible before it is first committed.
func Check(baseline, fresh []GateRow, tolerance float64) (lines []string, failures int) {
	const format = "%-22s %-30s %12.3f %12.3f %8s%s"
	got := make(map[string]GateRow, len(fresh))
	for _, r := range fresh {
		got[r.id()] = r
	}
	lines = append(lines, fmt.Sprintf("%-22s %-30s %12s %12s %8s", "row", "metric", "baseline", "fresh", "gate"))
	committed := make(map[string]bool, len(baseline))
	for _, want := range baseline {
		committed[want.id()] = true
		label := want.Experiment + " " + want.Key
		r, ok := got[want.id()]
		if !ok {
			failures++
			lines = append(lines, fmt.Sprintf("%-22s %-30s missing from fresh run", label, want.Metric))
			continue
		}
		ref, note, failed := want.Value, "(info)", false
		switch want.Gate {
		case GateIdentical:
			ref, note, failed = 1, "(same)", r.Value != 1
		case GateFrac:
			ratio := 0.0
			if ref > 0 {
				ratio = r.Value / ref
			}
			note, failed = fmt.Sprintf("%.2fx", ratio), ref > 0 && ratio < 1-tolerance
		case GateFloor:
			ref, note, failed = want.Bound, "(floor)", r.Value < want.Bound
		case GateCeil:
			ref, note, failed = want.Bound, "(ceil)", r.Value > want.Bound
		case GatePositive:
			ref, note, failed = 0, "(> 0)", r.Value <= 0
		case GateZero:
			ref, note, failed = 0, "(= 0)", r.Value != 0
		}
		status := ""
		if failed {
			failures++
			status = "  REGRESSED"
		}
		lines = append(lines, fmt.Sprintf(format, label, want.Metric, ref, r.Value, note, status))
	}
	for _, r := range fresh {
		if !committed[r.id()] {
			lines = append(lines, fmt.Sprintf(format, r.Experiment+" "+r.Key, r.Metric, 0.0, r.Value, "(info)", "  no committed baseline"))
		}
	}
	return lines, failures
}
