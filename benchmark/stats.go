package main

import (
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values for
// an even count) and 0 for an empty slice.  xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// quartileSpread is the distance between the first and the third quartile of
// xs as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) returns (the "exclusive" method) — the figure
// the acceptance procedure compares against a metric's bound.  It needs at
// least two values.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction: positive means b regressed.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
