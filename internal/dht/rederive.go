package dht

import "slices"

// Online boundary re-derivation.
//
// An Ownership table built from static per-key weights (vertex degrees)
// balances *stored* load, but the cost of serving a key is its observed
// query traffic — recursive MIS/MM searches cost proportionally to search
// tree size, which no static weight predicts.  RederiveBoundaries folds the
// per-machine load observed during a run of rounds back into per-key
// weights and rebuilds the prefix-sum boundaries, so the next rounds'
// partition follows where the queries actually went.

// RederiveBoundaries rebuilds old's machine boundaries from observed
// per-machine load.  load[m] is any non-negative measure of the traffic
// machine m served during the last rounds (query counts, sampled search
// cost, or a blend); base[k] is the static per-key weight the table was
// originally built from (degree weights), used to apportion a machine's
// observed load across the keys it owned.  Each key's new weight is its
// owner's load spread over the owner's range proportionally to base — so if
// every machine's load matches its weight share the boundaries are a fixed
// point, and a machine that ran hot sheds keys to its neighbors on the next
// derivation.  Machines with no recorded load shed aggressively (their keys
// weigh nothing) but the NewOwnership clamp still leaves every machine at
// least one key.  Returns old itself when there is nothing to derive from
// (a nil or empty table, a machine count mismatch with load, or an
// all-zero load vector) and when the re-derived boundaries equal old's, so
// next == old exactly when no key changes owner.
func RederiveBoundaries(old *Ownership, load []int64, base []int) *Ownership {
	if old == nil || old.keys <= 0 || old.machines <= 1 || len(load) != old.machines {
		return old
	}
	var total int64
	for _, l := range load {
		if l > 0 {
			total += l
		}
	}
	if total <= 0 {
		return old
	}
	// Per-key cost estimate: owner's observed load apportioned across the
	// owner's range by base weight (evenly when the range has no base
	// weight).  Floating point keeps the apportioning exact for wildly
	// skewed loads; the result is quantized back to the int weights
	// NewOwnership consumes at a resolution far above the boundary
	// granularity.
	cost := make([]float64, old.keys)
	maxCost := 0.0
	for m := 0; m < old.machines; m++ {
		lo, hi := old.Range(m)
		if lo >= hi {
			continue
		}
		l := 0.0
		if load[m] > 0 {
			l = float64(load[m])
		}
		sumBase := 0.0
		for k := lo; k < hi; k++ {
			if k < len(base) && base[k] > 0 {
				sumBase += float64(base[k])
			}
		}
		for k := lo; k < hi; k++ {
			var c float64
			if sumBase > 0 {
				if k < len(base) && base[k] > 0 {
					c = l * float64(base[k]) / sumBase
				}
			} else {
				c = l / float64(hi-lo)
			}
			cost[k] = c
			if c > maxCost {
				maxCost = c
			}
		}
	}
	if maxCost <= 0 {
		return old
	}
	scale := float64(1<<20) / maxCost
	weights := make([]int, old.keys)
	for k, c := range cost {
		weights[k] = int(c * scale)
	}
	next := NewOwnership(old.machines, weights)
	if slices.Equal(next.starts, old.starts) {
		return old
	}
	return next
}
