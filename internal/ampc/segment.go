package ampc

import (
	"fmt"
	"time"

	"ampcgraph/internal/dht"
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

// dirtyLog tracks the spans the completed shares of a round have written to
// one store, and how much of the log each machine's cache has been fenced
// with.
type dirtyLog struct {
	spans  []dht.RangeSet // one entry per completed share
	fenced []int          // per machine: log prefix already applied
}

// runSegment executes one round — a barrier segment.  It is the only function
// that prepares rounds, feeds the worker pool, flushes or discards buffered
// writes, spends fault budget and charges the modeled clock:
//
//  1. prepare the round, freeze its Read store and fence the caches of every
//     store it reads (Session.fenceCaches);
//  2. submit every machine's share to the pool;
//  3. as each share completes, flush its buffered writes — or, when it failed
//     and Config.FaultBudget has budget left, discard them and resubmit the
//     share;
//  4. invalidate, range-exactly, the spans the round wrote from every
//     machine's cache of the stores written, and record their fence points;
//  5. charge the clock the slowest machine's busy time plus one round
//     overhead.
//
// A retried share first re-fences its machine's caches against the spans
// that the round's already-completed shares have written, because a round
// may read a cumulative store it also writes (one declared in both Reads and
// Writes, as rankadj's truncated passes do).
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
	// Session.Close cannot tear the pool down mid-flight (it waits instead);
	// the execMu read lock keeps Rebalance's shard migration from
	// interleaving with the round.
	s.lifecycle.RLock()
	defer s.lifecycle.RUnlock()
	if s.closed.Load() || j.closed.Load() {
		return fmt.Errorf("ampc: round %q: %w", round.Name, ErrClosed)
	}
	if err := j.ctx.Err(); err != nil {
		return fmt.Errorf("ampc: round %q: job cancelled: %w", round.Name, err)
	}
	s.execMu.RLock()
	defer s.execMu.RUnlock()

	pr := j.prepareRound(round)
	if st := round.Read; st != nil {
		if err := st.Freeze(); err != nil {
			return fmt.Errorf("ampc: round %q: freezing input store: %w", round.Name, err)
		}
	}
	reads := round.readSet()
	for _, a := range reads {
		s.fenceCaches(a.Store)
	}

	machines := cfg.Machines
	logs := make(map[*dht.Store]*dirtyLog)
	// logShare records machine m's declared write spans once its share is
	// done (a machine with no items is done from the start).
	logShare := func(m int) {
		for _, w := range round.Writes {
			if w.Store == nil {
				continue
			}
			lg := logs[w.Store]
			if lg == nil {
				lg = &dirtyLog{fenced: make([]int, machines)}
				logs[w.Store] = lg
			}
			lg.spans = append(lg.spans, w.spansFor(m))
		}
	}
	// fenceMachine applies, to machine m's cache of st, the spans logged
	// since m was last fenced.
	fenceMachine := func(st *dht.Store, lg *dirtyLog, m int) {
		if lg.fenced[m] >= len(lg.spans) {
			return
		}
		set := dht.EmptyRange()
		for _, spans := range lg.spans[lg.fenced[m]:] {
			set = set.Union(spans)
		}
		lg.fenced[m] = len(lg.spans)
		s.invalidateMachineCache(st, m, set)
	}

	// Every submitted share sends exactly one completion per attempt, and a
	// retry is only submitted after its failed attempt's completion has been
	// received, so the buffered channel never blocks a sender.
	done := make(chan int, machines)
	pending := 0
	for m, job := range pr.jobs {
		if job == nil {
			logShare(m)
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
				// buffered writes, re-fence the machine's caches against the
				// spans already written, and resubmit.  The re-executed
				// share's counters accumulate across attempts, so recovery
				// lands in the modeled time.
				job.ctx.discardWrites()
				job.reset()
				for _, a := range reads {
					if lg := logs[a.Store]; lg != nil {
						fenceMachine(a.Store, lg, m)
					}
				}
				s.workers().submit(m, job)
				continue
			}
			fail(m, job.takeErr())
		} else if err := job.ctx.flushWrites(); err != nil {
			fail(m, fmt.Errorf("ampc: round %q: flushing machine %d writes: %w", round.Name, m, err))
		}
		pending--
		logShare(m)
		if err := j.ctx.Err(); err != nil && cancelErr == nil {
			cancelErr = fmt.Errorf("ampc: round %q: job cancelled: %w", round.Name, err)
		}
	}
	if firstErr == nil {
		firstErr = cancelErr
	}

	// Apply the spans each machine has not yet been fenced with, then record
	// the written stores' whole-store fence points: a later round fences by
	// write count, and without the recorded point it would mistake this
	// round's writes for incoherent cache state.
	for st, lg := range logs {
		for m := 0; m < machines; m++ {
			fenceMachine(st, lg, m)
		}
		w := st.WriteCount()
		s.mu.Lock()
		s.cacheFence[st] = w
		s.mu.Unlock()
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
