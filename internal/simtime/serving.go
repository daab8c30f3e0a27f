package simtime

import "time"

// Concurrent-job accounting.
//
// A serving session runs many jobs against one machine pool at once: every
// machine interleaves the round shares of all in-flight jobs, so the modeled
// wall-clock of the batch is no longer the sum of per-job makespans.  Two
// lower bounds constrain any interleaving: machine m cannot finish before it
// has executed the busy time every job assigned to it, and the batch cannot
// finish before its longest single job — whose own modeled time already
// includes that job's barrier stalls — has run end to end.  A
// work-conserving pool approaches the larger of the two, which is what
// ConcurrentMakespan reports; the serving benchmark compares it against the
// serialized sum of per-job times to measure the sharing win.

// ConcurrentMakespan models the wall-clock of jobs executing concurrently on
// one shared machine pool.  busy[j][m] is job j's total busy time on machine
// m (ampc.Stats.MachineBusy); rows may be ragged.  sims[j] is job j's own
// end-to-end modeled time.  The result is
//
//	max( max_m Σ_j busy[j][m] , max_j sims[j] )
//
// — the makespan of an ideal work-conserving interleaving of the jobs.
func ConcurrentMakespan(busy [][]time.Duration, sims []time.Duration) time.Duration {
	var load []time.Duration
	for _, job := range busy {
		for m, d := range job {
			for len(load) <= m {
				load = append(load, 0)
			}
			load[m] += d
		}
	}
	var span time.Duration
	for _, d := range append(load, sims...) {
		span = max(span, d)
	}
	return span
}
