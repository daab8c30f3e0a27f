package simtime

import "time"

// Segment schedule accounting.
//
// At a global barrier a round costs as much as its slowest machine, and
// every faster machine idles until the barrier releases.  Inside a segment
// of the AMPC runtime a machine that has finished its share of round i moves
// on to round j > i as soon as the sub-rounds its share of j conflicts with
// have completed, so the modeled wall-clock of a round sequence becomes a
// per-machine critical-path maximum instead of a sum of per-round maxima.
// The two functions below compute both accountings from the same
// per-(round, machine) busy durations, so the runtime can report the modeled
// time it actually charges next to the barrier time the same rounds would
// have cost — and therefore the straggler idle the segment removed.

// Schedule is the result of scheduling one round sequence: the modeled
// makespan (time until the last machine finishes its last round) and the
// total straggler idle (summed over machines, the time a machine spent
// waiting for others between its own work and the makespan).
type Schedule struct {
	// Makespan is the modeled wall-clock of the whole sequence.
	Makespan time.Duration
	// Idle is the total idle time across machines: for each machine,
	// Makespan minus the machine's own busy time, summed over machines.
	// Under a barrier schedule this is the straggler idle the paper's
	// lock-step execution pays; a pipelined schedule with the same busy
	// durations can only shrink it.
	Idle time.Duration
}

// BarrierSchedule models the classic lock-step execution of rounds: round j
// starts only after every machine has finished round j-1, so the sequence
// costs the sum over rounds of the slowest machine.  busy[j][m] is the busy
// duration of machine m in round j; rows may be ragged or empty (an empty
// row contributes nothing).
func BarrierSchedule(busy [][]time.Duration) Schedule {
	var s Schedule
	machines := scheduleWidth(busy)
	if machines == 0 {
		return s
	}
	total := make([]time.Duration, machines)
	for _, round := range busy {
		var max time.Duration
		for m := 0; m < machines; m++ {
			d := durAt(round, m)
			total[m] += d
			if d > max {
				max = d
			}
		}
		s.Makespan += max
	}
	for m := 0; m < machines; m++ {
		s.Idle += s.Makespan - total[m]
	}
	return s
}

// SubDep names one sub-round — the share of one round executed by one
// machine — as a scheduling predecessor.
type SubDep struct {
	Round   int
	Machine int
}

// SubroundSchedule models the range-gated pipelined execution at sub-round
// granularity: machine m starts its share of round j as soon as it has
// finished its own round j-1 AND every predecessor sub-round in deps[j][m]
// has finished.  This is the accounting for key-range conflict declarations:
// a round that only conflicts with a predecessor on some machines' owned
// ranges gates each machine on exactly those (round, machine) pairs instead
// of on a whole-round barrier.  With deps[j][m] naming every machine of
// round j-1 for all j and m — or with a single round — this degenerates to
// BarrierSchedule.
func SubroundSchedule(busy [][]time.Duration, deps [][][]SubDep) Schedule {
	var s Schedule
	machines := scheduleWidth(busy)
	if machines == 0 {
		return s
	}
	finish := make([][]time.Duration, len(busy))
	total := make([]time.Duration, machines)
	for j, round := range busy {
		finish[j] = make([]time.Duration, machines)
		for m := 0; m < machines; m++ {
			var start time.Duration
			if j > 0 {
				start = finish[j-1][m] // per-machine program order
			}
			if j < len(deps) && m < len(deps[j]) {
				for _, dep := range deps[j][m] {
					if dep.Round < 0 || dep.Round >= j || dep.Machine < 0 || dep.Machine >= machines {
						continue
					}
					if f := finish[dep.Round][dep.Machine]; f > start {
						start = f
					}
				}
			}
			d := durAt(round, m)
			finish[j][m] = start + d
			total[m] += d
		}
	}
	for m := 0; m < machines; m++ {
		if n := len(busy); n > 0 && finish[n-1][m] > s.Makespan {
			s.Makespan = finish[n-1][m]
		}
	}
	for m := 0; m < machines; m++ {
		s.Idle += s.Makespan - total[m]
	}
	return s
}

func scheduleWidth(busy [][]time.Duration) int {
	w := 0
	for _, round := range busy {
		if len(round) > w {
			w = len(round)
		}
	}
	return w
}

func durAt(round []time.Duration, m int) time.Duration {
	if m < len(round) {
		return round[m]
	}
	return 0
}
