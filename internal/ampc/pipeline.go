package ampc

import (
	"fmt"
	"strings"
	"time"

	"ampcgraph/internal/dht"
	"ampcgraph/internal/simtime"
)

// The segment executor.
//
// The AMPC model is barrier-synchronized: round i+1 starts only after every
// machine has finished round i, so one straggler machine idles the whole
// persistent pool.  Most of that synchronization is over-conservative — a
// machine only truly needs the keys it reads to be fully written.  Rounds
// therefore declare their accesses (Round.Reads / Round.Writes) as Access
// values: the store touched plus, optionally, the key spans touched per
// machine.  runSegment schedules a round sequence — a segment — at sub-round
// granularity, one sub-round being machine m's share of round j, so that:
//
//   - each machine executes its shares in program order (round j after
//     round j-1, enforced by the per-machine FIFO job feeds of the pool);
//   - sub-round (j, m) starts only once every conflicting earlier sub-round
//     (i, m') has finished, where a conflict is a RAW, WAR or WAW pair on
//     the same store with overlapping declared spans (see subroundDeps).
//
// A segment of one round has no earlier sub-rounds to wait for: all machines
// start together and the segment ends when the slowest finishes, which is
// the model's barrier round.  Whole-store declarations (the zero span set)
// make every machine of a writing round a predecessor; per-machine span
// declarations let a machine whose reads fall inside its own owned range
// flow past a straggler still writing a different range of the same store.
//
// Coherence bookkeeping follows the same granularity.  A read store is
// frozen when its last declared write sub-round completes (immediately at
// prepare when no declared writes are pending).  Per-machine caches are
// fenced with exactly the spans completed write sub-rounds have dirtied
// since the machine's cache was last fenced (dht.Cache.InvalidateRange), so
// disjoint-range sub-rounds do not thrash caches that cannot hold stale
// entries; when the segment drains, the remaining dirty spans are applied
// and the whole-store fence point (Session.cacheFence) is recorded so later
// segments see coherent caches.  Because a sub-round's reads begin only
// after every write overlapping its declared spans has completed — and
// reads outside the declared spans are a contract violation — the
// computation observes exactly the same store contents however a round
// sequence is cut into segments: results are byte-identical with
// Config.Pipeline on or off.  Only the schedule — and therefore the modeled
// wall-clock, a per-sub-round critical-path max (simtime.SubroundSchedule)
// instead of a sum of per-round maxima — changes.  For segments of two or
// more rounds the per-round-barrier accounting of the same busy times is
// preserved in Stats.BarrierSim so the two can be compared on the same run.
//
// Concurrent jobs interleave at the same granularity: each job's executor
// submits its sub-rounds into the shared per-machine pool feeds, which keep
// FIFO order per machine, so one job's straggler sub-round overlaps with
// another job's independent work on other machines.

// subroundDeps returns, for every sub-round (j, m), its scheduling
// predecessors: every round i < j whose (i, m') share conflicts with (j, m),
// for each source machine m'.  Every conflicting round is recorded, not just
// the latest per source machine: sub-round recovery (Config.FaultBudget) can
// re-execute a failed share after later non-conflicting shares of the same
// machine have completed, so "latest round done" no longer implies "earlier
// conflicting rounds done".  The redundant edges cost nothing in the modeled
// schedule — simtime.SubroundSchedule already serializes a machine's shares
// in program order, so the extra edges are dominated.
//
// This analysis is the expensive part of scheduling a segment; compiled
// plans (Session.CompilePlan) cache its result per (key, ownership
// generation) and pass it back in through runSegment's deps parameter.
func subroundDeps(rounds []Round, machines int) [][][]simtime.SubDep {
	reads := make([][]Access, len(rounds))
	for i := range rounds {
		reads[i] = rounds[i].readSet()
	}
	deps := make([][][]simtime.SubDep, len(rounds))
	for j := range rounds {
		deps[j] = make([][]simtime.SubDep, machines)
		for m := 0; m < machines; m++ {
			for m2 := 0; m2 < machines; m2++ {
				for i := j - 1; i >= 0; i-- {
					if subroundsConflict(rounds[i], reads[i], m2, rounds[j], reads[j], m) {
						deps[j][m] = append(deps[j][m], simtime.SubDep{Round: i, Machine: m2})
					}
				}
			}
		}
	}
	return deps
}

// subroundsConflict reports whether sub-round (a, am) must precede (b, bm):
// a write of one overlapping a read or write of the other on the same
// resource.
func subroundsConflict(a Round, aReads []Access, am int, b Round, bReads []Access, bm int) bool {
	for _, wa := range a.Writes {
		for _, rb := range bReads {
			if wa.conflictsWith(am, rb, bm) {
				return true
			}
		}
		for _, wb := range b.Writes {
			if wa.conflictsWith(am, wb, bm) {
				return true
			}
		}
	}
	for _, ra := range aReads {
		for _, wb := range b.Writes {
			if ra.conflictsWith(am, wb, bm) {
				return true
			}
		}
	}
	return false
}

// RunPipeline executes a sequence of rounds: one segment per round with
// Config.Pipeline unset — exactly equivalent to calling Run on each round in
// order — and one dependency-scheduled segment with it set, in which
// machines proceed through the sequence in program order and each machine's
// share of a round is gated on exactly the conflicting predecessor
// sub-rounds (see the package comment above).  Every round must declare its
// full access sets via Read/Reads and Writes.
func (j *Job) RunPipeline(rounds []Round) error {
	stages := make([]StagedRound, len(rounds))
	for i := range rounds {
		stages[i].Round = rounds[i]
	}
	return j.runStages(stages, nil)
}

// pipeDone is one (round, machine) completion event.
type pipeDone struct{ round, machine int }

// dirtyLog tracks the spans declared write sub-rounds have written to one
// store since the segment began, and how much of the log each machine's
// cache has already been fenced with.
type dirtyLog struct {
	spans  []dht.RangeSet // one entry per completed write sub-round
	fenced []int          // per machine: log prefix already applied
}

// runSegment executes one segment: it is the only function that prepares
// rounds, feeds the worker pool, flushes or discards buffered writes, spends
// fault budget and charges the modeled clock.  deps is the sub-round conflict
// analysis to schedule under; nil computes it fresh, non-nil reuses a
// compiled plan's cached analysis.
//
// A failing segment drains before it returns, and returns the error of its
// lowest failed (round, machine) sub-round, so the reported failure does not
// depend on how completions interleave.
//
// Job cancellation is honored between sub-rounds: once j.ctx is done the
// executor stops submitting new sub-rounds and stops spending fault budget
// on retries, drains the in-flight ones (their writes still flush, keeping
// the stores consistent for other jobs sharing them), and returns the
// context error.  The session stays fully usable.
func (j *Job) runSegment(rounds []Round, deps [][][]simtime.SubDep) error {
	j.runMu.Lock()
	defer j.runMu.Unlock()
	cfg := j.cfg
	s := j.Session
	// Hold the lifecycle read lock for the whole segment so a concurrent
	// Session.Close cannot tear the pool down mid-flight (it waits instead);
	// the execMu read lock keeps Rebalance's shard migration from
	// interleaving with the segment.
	s.lifecycle.RLock()
	defer s.lifecycle.RUnlock()
	if s.closed.Load() || j.closed.Load() {
		return fmt.Errorf("ampc: round %q: %w", rounds[0].Name, ErrClosed)
	}
	if err := j.ctx.Err(); err != nil {
		return fmt.Errorf("ampc: round %q: job cancelled: %w", rounds[0].Name, err)
	}
	s.execMu.RLock()
	defer s.execMu.RUnlock()

	k := len(rounds)
	// fail keeps the error of the lowest (round, machine) position; errors
	// of the segment as a whole (cancellation) are filed at round k, behind
	// every sub-round's.  Only this goroutine records errors.
	var firstErr error
	errRound, errMachine := k+1, 0
	fail := func(round, machine int, err error) {
		if err != nil && (round < errRound || round == errRound && machine < errMachine) {
			firstErr, errRound, errMachine = err, round, machine
		}
	}

	machines := cfg.Machines
	if deps == nil {
		deps = subroundDeps(rounds, machines)
	}
	prepared := make([]*preparedRound, k)
	// All busy rows are allocated up front: a stopped segment never prepares
	// its tail rounds, but the schedule computation below still wants a
	// rectangular matrix (unrun sub-rounds contribute zero).
	busy := make([][]time.Duration, k)
	for i := range busy {
		busy[i] = make([]time.Duration, machines)
	}

	// writersLeft counts, per store, the declared write sub-rounds still
	// outstanding; a store freezes — and its whole-store fence point can be
	// recorded — only once it reaches zero.
	writersLeft := make(map[*dht.Store]int)
	for _, rd := range rounds {
		for _, w := range rd.Writes {
			if w.Store != nil {
				writersLeft[w.Store] += machines
			}
		}
	}
	pendingFreeze := make(map[*dht.Store]bool)
	logs := make(map[*dht.Store]*dirtyLog)
	logFor := func(st *dht.Store) *dirtyLog {
		lg := logs[st]
		if lg == nil {
			lg = &dirtyLog{fenced: make([]int, machines)}
			logs[st] = lg
		}
		return lg
	}

	// Every submitted (round, machine) pair produces exactly one event, so
	// the buffered channel never blocks a sender.
	events := make(chan pipeDone, k*machines)
	doneSub := make([][]bool, k)
	for i := range doneSub {
		doneSub[i] = make([]bool, machines)
	}
	nextRound := make([]int, machines) // next round to enqueue, per machine

	// submitted counts sub-rounds handed to the pool (or completed inline);
	// received counts their completion events consumed.  stopped — the job
	// was cancelled, or a round's input store could not be frozen — ends
	// submission, so the drain loop waits for exactly the outstanding gap.
	submitted, received := 0, 0
	stopped := false

	ready := func(rj, m int) bool {
		for _, dep := range deps[rj][m] {
			if !doneSub[dep.Round][dep.Machine] {
				return false
			}
		}
		return true
	}

	// prepare partitions round rj the first time any machine reaches it and
	// reports whether the round may be dispatched.  Freezing the input store
	// must wait for its stragglers: with declared write sub-rounds still in
	// flight the freeze (and the whole-store fence) is deferred to the last
	// writer's completion, and the caches are instead fenced range-exactly
	// at sub-round dispatch.
	prepare := func(rj int) bool {
		prepared[rj] = j.prepareRound(rounds[rj])
		if st := rounds[rj].Read; st != nil {
			if writersLeft[st] > 0 {
				pendingFreeze[st] = true
			} else if err := st.Freeze(); err != nil {
				fail(rj, -1, fmt.Errorf("ampc: round %q: freezing input store: %w", rounds[rj].Name, err))
				return false
			}
		}
		for _, a := range rounds[rj].readSet() {
			if a.Store != nil && writersLeft[a.Store] == 0 && logs[a.Store] == nil {
				// No declared writer pending and none completed in this
				// segment: fence against writes from before the segment.
				s.fenceCaches(a.Store)
			}
		}
		return true
	}

	// fenceMachine applies, to machine m's cache of st, the dirty spans
	// completed write sub-rounds have logged since m was last fenced.
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
	// fenceSub brings machine m's caches of round rj's read stores up to
	// date before the sub-round is (re)submitted.
	fenceSub := func(rj, m int) {
		for _, a := range rounds[rj].readSet() {
			if lg := logs[a.Store]; a.Store != nil && lg != nil {
				fenceMachine(a.Store, lg, m)
			}
		}
	}

	// pump enqueues, for every machine, each next round whose predecessor
	// sub-rounds have all finished.  The per-machine feeds keep program
	// order, so enqueueing ahead of the machine's current work is safe —
	// and safe across jobs, since each feed keeps every job's shares in its
	// own program order.  Once stopped, pump submits nothing more; the
	// in-flight sub-rounds drain through the event loop.
	pump := func() {
		for m := 0; m < machines && !stopped; m++ {
			for nextRound[m] < k && ready(nextRound[m], m) {
				rj := nextRound[m]
				if prepared[rj] == nil && !prepare(rj) {
					stopped = true
					break
				}
				nextRound[m]++
				fenceSub(rj, m)
				submitted++
				job := prepared[rj].jobs[m]
				if job == nil {
					// No items for this machine: complete immediately.
					events <- pipeDone{rj, m}
					continue
				}
				job.done = func(*machineJob) { events <- pipeDone{rj, m} }
				s.workers().submit(m, job)
			}
		}
	}

	// Read stores this segment's declared writers will dirty are fenced up
	// front: nothing of the segment has run yet, so a write-count fence here
	// catches exactly the pre-segment writes, and the in-segment writes are
	// fenced range-exactly at sub-round dispatch.
	fencedUpfront := make(map[*dht.Store]bool)
	for _, rd := range rounds {
		for _, a := range rd.readSet() {
			if a.Store != nil && writersLeft[a.Store] > 0 && !fencedUpfront[a.Store] {
				fencedUpfront[a.Store] = true
				s.fenceCaches(a.Store)
			}
		}
	}

	pump()
	for received < submitted {
		ev := <-events
		// Only machine ev.machine's threads ever touched this context, and
		// they are all done with it, so its counters are final.
		job := prepared[ev.round].jobs[ev.machine]
		if job != nil && job.failed.Load() {
			if !stopped && j.consumeFaultBudget() {
				// Re-execute just this sub-round: drop the failed attempt's
				// buffered writes, re-fence the machine's caches against any
				// spans dirtied since dispatch, and resubmit.  Conflicting
				// later sub-rounds are still gated on doneSub, which is only
				// set after a successful flush, so the retry is invisible to
				// the rest of the schedule — except in the modeled time,
				// where the re-executed share's counters land twice.  The
				// completion event is still outstanding, so received is not
				// advanced.
				job.ctx.discardWrites()
				job.reset()
				fenceSub(ev.round, ev.machine)
				s.workers().submit(ev.machine, job)
				continue
			}
			fail(ev.round, ev.machine, job.takeErr())
		} else if job != nil {
			if err := job.ctx.flushWrites(); err != nil {
				fail(ev.round, ev.machine, fmt.Errorf("ampc: round %q: flushing machine %d writes: %w",
					rounds[ev.round].Name, ev.machine, err))
			}
		}
		received++
		busy[ev.round][ev.machine] = prepared[ev.round].ctxs[ev.machine].busy()
		doneSub[ev.round][ev.machine] = true
		for _, w := range rounds[ev.round].Writes {
			if w.Store == nil {
				continue
			}
			lg := logFor(w.Store)
			lg.spans = append(lg.spans, w.spansFor(ev.machine))
			writersLeft[w.Store]--
			if writersLeft[w.Store] == 0 && pendingFreeze[w.Store] {
				if err := w.Store.Freeze(); err != nil {
					fail(ev.round, ev.machine, fmt.Errorf("ampc: round %q: freezing store after last writer: %w",
						rounds[ev.round].Name, err))
				}
				delete(pendingFreeze, w.Store)
			}
		}
		if err := j.ctx.Err(); err != nil && !stopped {
			stopped = true
			fail(k, 0, fmt.Errorf("ampc: round %q: job cancelled: %w", rounds[0].Name, err))
		}
		pump()
	}

	// Segment-end fence finalization: apply the dirty spans each machine has
	// not yet been fenced with, then record the stores' whole-store fence
	// points — a later segment fences by write count, and without the
	// recorded point it would mistake this segment's writes for coherent
	// cache state.
	for st, lg := range logs {
		for m := 0; m < machines; m++ {
			fenceMachine(st, lg, m)
		}
		w := st.WriteCount()
		s.mu.Lock()
		s.cacheFence[st] = w
		s.mu.Unlock()
	}

	for _, pr := range prepared {
		if pr != nil {
			j.absorbRoundStats(pr.ctxs)
		}
	}

	// Modeled time: the critical-path makespan of the range-gated sub-round
	// schedule — for a one-round segment, its slowest machine — plus the
	// round-spawn overheads.  Re-executed shares accumulate their counters
	// across attempts, so recovery overhead lands in the modeled duration.
	// Segments that overlapped rounds keep the per-round-barrier accounting
	// of the same durations alongside for comparison.
	overhead := cfg.Model.Price(simtime.Work{simtime.Rounds: int64(k)}, 1)
	pipe := simtime.SubroundSchedule(busy, deps)
	j.clock.Charge(pipe.Makespan + overhead)
	if k > 1 {
		barrier := simtime.BarrierSchedule(busy)
		j.mu.Lock()
		j.stats.PipelineSegments++
		j.stats.PipelinedRounds += k
		j.stats.PipelineSim += pipe.Makespan + overhead
		j.stats.BarrierSim += barrier.Makespan + overhead
		j.stats.PipelineIdle += pipe.Idle
		j.stats.BarrierIdle += barrier.Idle
		j.mu.Unlock()
	}
	return firstErr
}

// StagedRound couples a Round with the Phase it runs under.
type StagedRound struct {
	// Phase names the phase wrapping the round; empty runs the round
	// without a phase of its own.  Stages sharing a segment run under one
	// phase joining their names with "+".
	Phase string
	// Round is the round to execute.
	Round Round
}

// RunStaged executes a static round sequence the way the core algorithms
// drive their pipelines.  With Config.Pipeline unset each round is its own
// segment under its own phase — byte-identical, in results and in
// accounting, to writing Phase+Run by hand.  With Pipeline set the whole
// sequence runs as one segment under a single phase combining the stage
// names, so a machine done with its share of one stage flows into the next
// stage's independent work instead of idling at the barrier.
func (j *Job) RunStaged(stages []StagedRound) error { return j.runStages(stages, nil) }

// runStages cuts a staged round sequence into segments and executes them in
// order: the whole sequence as one segment under Config.Pipeline, one segment
// per stage otherwise.  Each segment runs under the joined phase names of its
// stages.  deps is the compiled sub-round analysis of the whole sequence, if
// there is one (RunPlan under Config.Pipeline).
func (j *Job) runStages(stages []StagedRound, deps [][][]simtime.SubDep) error {
	size := len(stages)
	if !j.cfg.Pipeline {
		size = 1
	}
	for lo := 0; lo < len(stages); lo += size {
		rounds := make([]Round, 0, size)
		var names []string
		for _, st := range stages[lo : lo+size] {
			rounds = append(rounds, st.Round)
			if st.Phase != "" {
				names = append(names, st.Phase)
			}
		}
		run := func() error { return j.runSegment(rounds, deps) }
		var err error
		if len(names) == 0 {
			err = run()
		} else {
			err = j.Phase(strings.Join(names, "+"), run)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
