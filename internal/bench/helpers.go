package bench

import "math"

// meanStd returns the mean and sample standard deviation of xs (std 0 for
// fewer than two samples).
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// safeRatio returns num/den guarded against the zero-denominator rows of
// the comparison experiments (a baseline with no remote reads or no idle on
// a tiny graph): a ratio of two zeros is parity (1), and a positive
// numerator over a zero denominator reports 0 — "not meaningful" — instead
// of leaking Inf/NaN into the text tables and JSON snapshots.
func safeRatio(num, den float64) float64 {
	if den > 0 {
		return num / den
	}
	if num <= 0 {
		return 1
	}
	return 0
}

// safeReductionPct returns the percentage of base removed when it fell to
// remaining, or 0 when there was nothing to reduce (base <= 0).
func safeReductionPct(base, remaining float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (base - remaining) / base
}
