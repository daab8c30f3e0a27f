package simtime

import "time"

// Barrier accounting.
//
// At a global barrier a round costs as much as its slowest machine, and
// every faster machine idles until the barrier releases.  The AMPC runtime
// prices each round this way: BarrierSchedule turns per-(round, machine)
// busy durations into the modeled makespan and the straggler idle.

// Schedule is the result of scheduling one round sequence: the modeled
// makespan (time until the last machine finishes its last round) and the
// total straggler idle (summed over machines, the time a machine spent
// waiting for others between its own work and the makespan).
type Schedule struct {
	// Makespan is the modeled wall-clock of the whole sequence.
	Makespan time.Duration
	// Idle is the total idle time across machines: for each machine,
	// Makespan minus the machine's own busy time, summed over machines.
	Idle time.Duration
}

// BarrierSchedule models the lock-step execution of rounds: round j starts
// only after every machine has finished round j-1, so the sequence costs the
// sum over rounds of the slowest machine.  busy[j][m] is the busy duration of
// machine m in round j; rows may be ragged or empty (a missing entry is zero).
func BarrierSchedule(busy [][]time.Duration) Schedule {
	var s Schedule
	machines := 0
	for _, round := range busy {
		machines = max(machines, len(round))
	}
	total := make([]time.Duration, machines)
	for _, round := range busy {
		var slowest time.Duration
		for m, d := range round {
			total[m] += d
			slowest = max(slowest, d)
		}
		s.Makespan += slowest
	}
	for _, t := range total {
		s.Idle += s.Makespan - t
	}
	return s
}
