package ampc

import (
	"fmt"
	"time"

	"ampcgraph/internal/simtime"
)

// Run executes one AMPC round on the session's persistent worker pool.  Work
// item i is assigned to machine i mod Machines (or Partitioner(i) when set);
// each machine processes its items with Threads concurrent workers sharing
// one Ctx.  The simulated duration of the round is the maximum over machines
// of (compute + key-value latency / Threads), modeling the fact that
// multithreading hides lookup latency but not computation, plus one round
// overhead.
func (j *Job) Run(round Round) error { return j.runSegment(round) }

// StagedRound couples a Round with the Phase it runs under.
type StagedRound struct {
	// Phase names the phase wrapping the round; empty runs the round
	// without a phase of its own.
	Phase string
	// Round is the round to execute.
	Round Round
}

// RunStaged executes a static round sequence the way the core algorithms
// drive it: each stage is one Run, under its own Phase when it names one.
// It stops at the first error.
func (j *Job) RunStaged(stages []StagedRound) error {
	for _, st := range stages {
		run := func() error { return j.Run(st.Round) }
		var err error
		if st.Phase == "" {
			err = run()
		} else {
			err = j.Phase(st.Phase, run)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runSegment executes one round — a barrier segment.  It is the only function
// that prepares rounds, feeds the worker pool, flushes or discards buffered
// writes, spends fault budget and charges the modeled clock:
//
//  1. freeze the round's Read store and prepare the round;
//  2. submit every machine's share to the pool;
//  3. as each share completes, flush its buffered writes — or, when it failed
//     and Config.FaultBudget has budget left, discard them and resubmit the
//     share;
//  4. charge the clock the slowest machine's busy time plus one round
//     overhead.
//
// Caches front only the frozen Read store (Session.cacheFor checks it), and
// a frozen store rejects writes, so no cached entry can go stale and the
// executor keeps no cache bookkeeping of its own.
//
// A failing round drains before it returns, and returns the error of its
// lowest failed machine, so the reported failure does not depend on how
// completions interleave.  Job cancellation stops the spending of fault
// budget; the in-flight shares drain (their writes still flush, keeping the
// stores consistent for other jobs sharing them) and the context error is
// returned.  The session stays fully usable.
func (j *Job) runSegment(round Round) error {
	if round.Items < 0 {
		return fmt.Errorf("ampc: round %q: negative item count %d", round.Name, round.Items)
	}
	j.runMu.Lock()
	defer j.runMu.Unlock()
	cfg := j.cfg
	s := j.Session
	// Hold the lifecycle read lock for the whole round so a concurrent
	// Session.Close cannot tear the pool down mid-flight (it waits instead).
	s.lifecycle.RLock()
	defer s.lifecycle.RUnlock()
	if s.closed.Load() || j.closed.Load() {
		return fmt.Errorf("ampc: round %q: %w", round.Name, ErrClosed)
	}
	if err := j.ctx.Err(); err != nil {
		return fmt.Errorf("ampc: round %q: job cancelled: %w", round.Name, err)
	}
	if st := round.Read; st != nil {
		if err := st.Freeze(); err != nil {
			return fmt.Errorf("ampc: round %q: freezing input store: %w", round.Name, err)
		}
	}
	pr, err := j.prepareRound(round)
	if err != nil {
		return err
	}
	machines := cfg.Machines

	// Every submitted share sends exactly one completion per attempt, and a
	// retry is only submitted after its failed attempt's completion has been
	// received, so the buffered channel never blocks a sender.
	done := make(chan int, machines)
	pending := 0
	for m, job := range pr.jobs {
		if job == nil {
			continue
		}
		job.done = func(*machineJob) { done <- m }
		s.workers().submit(m, job)
		pending++
	}

	var firstErr, cancelErr error
	errMachine := machines
	fail := func(m int, err error) {
		if err != nil && m < errMachine {
			firstErr, errMachine = err, m
		}
	}
	for pending > 0 {
		m := <-done
		// Only machine m's threads ever touched its context, and they are
		// all done with it, so its counters are final.
		job := pr.jobs[m]
		if job.failed.Load() {
			if cancelErr == nil && j.consumeFaultBudget() {
				// Re-execute just this share: drop the failed attempt's
				// buffered writes and resubmit.  The re-executed share's
				// counters accumulate across attempts, so recovery lands in
				// the modeled time.
				job.ctx.discardWrites()
				job.reset()
				s.workers().submit(m, job)
				continue
			}
			fail(m, job.takeErr())
		} else if err := job.ctx.flushWrites(); err != nil {
			fail(m, fmt.Errorf("ampc: round %q: flushing machine %d writes: %w", round.Name, m, err))
		}
		pending--
		if err := j.ctx.Err(); err != nil && cancelErr == nil {
			cancelErr = fmt.Errorf("ampc: round %q: job cancelled: %w", round.Name, err)
		}
	}
	if firstErr == nil {
		firstErr = cancelErr
	}

	j.absorbRoundStats(pr.ctxs)
	busy := make([]time.Duration, machines)
	for m, ctx := range pr.ctxs {
		busy[m] = ctx.busy()
	}
	sched := simtime.BarrierSchedule([][]time.Duration{busy})
	j.clock.Charge(sched.Makespan + cfg.Model.Price(simtime.Work{simtime.Rounds: 1}, 1))
	j.mu.Lock()
	j.stats.BarrierIdle += sched.Idle
	j.mu.Unlock()
	return firstErr
}
