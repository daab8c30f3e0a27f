package ampc

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ampcgraph/internal/simtime"
)

// Job is one execution against a Session: it carries the per-job simulated
// clock, statistics, phase stack, fault budget and cancellation context,
// while the pool, stores, caches and ownership table come from the shared
// Session.  Jobs obtained through Session.NewJob run concurrently — their
// sub-rounds interleave in the per-machine pool feeds — and each still
// observes its own rounds in program order.
//
// A Job is driven through the *Runtime wrapper (Run, RunPipeline, RunStaged,
// RunPlan, Phase); Close releases its admission slot and marks it finished.
type Job struct {
	sess  *Session
	cfg   Config // the session configuration, copied for lock-free access
	clock *simtime.Clock
	// ctx cancels the job: the segment executor stops submitting new
	// sub-rounds once it is done, draining the in-flight ones before
	// returning the context error.
	ctx context.Context

	mu         sync.Mutex
	stats      Stats
	phaseStack []phaseFrame
	started    time.Time
	// faultBudgetUsed counts the sub-round re-executions spent against
	// Config.FaultBudget (see consumeFaultBudget) — per job, so one flaky
	// query cannot exhaust the recovery budget of its neighbors.
	faultBudgetUsed int

	// runMu serializes execution within this job: every segment and
	// Rebalance hold it for their whole duration, so concurrent calls on
	// one job queue instead of interleaving — while different jobs
	// interleave freely in the shared pool.
	runMu sync.Mutex

	admitted bool
	closed   atomic.Bool
}

type phaseFrame struct {
	name         string
	start        time.Time
	simStart     time.Duration
	shuffles     int
	shuffleBytes int64
	kvBytes      int64
}

// Clock returns the job's simulated clock.
func (j *Job) Clock() *simtime.Clock { return j.clock }

// Context returns the job's cancellation context (context.Background for
// jobs created without one).
func (j *Job) Context() context.Context { return j.ctx }

// Close marks the job finished and releases its admission slot, unblocking
// the oldest NewJob waiter.  The session — pool, stores, caches — is
// unaffected; only this job's Run/RunPipeline calls fail with ErrClosed
// afterwards.  Statistics remain readable.  Safe to call more than once.
func (j *Job) Close() {
	if j.closed.Swap(true) {
		return
	}
	if j.admitted {
		j.sess.release()
	}
}

// RecordShuffle records one shuffle of the host dataflow framework moving
// approximately bytes bytes, charging the simulated clock for the fixed
// shuffle overhead plus the per-byte cost.
func (j *Job) RecordShuffle(name string, bytes int64) {
	j.mu.Lock()
	j.stats.Shuffles++
	j.stats.ShuffleBytes += bytes
	if n := len(j.phaseStack); n > 0 {
		j.phaseStack[n-1].shuffles++
		j.phaseStack[n-1].shuffleBytes += bytes
	}
	j.mu.Unlock()
	j.clock.Charge(j.cfg.Model.ShuffleFixed)
	j.clock.Charge(time.Duration(bytes) * j.cfg.Model.ShufflePerByte)
}

// Phase runs fn as a named, timed phase.  Phases may nest; statistics are
// attributed to the innermost phase.  The KV-byte attribution is measured
// against the session's stores, so with concurrent jobs it approximates the
// phase's share of traffic.
func (j *Job) Phase(name string, fn func() error) error {
	kv := j.sess.kvBytes()
	j.mu.Lock()
	j.phaseStack = append(j.phaseStack, phaseFrame{
		name:     name,
		start:    time.Now(),
		simStart: j.clock.Elapsed(),
		kvBytes:  kv,
	})
	j.mu.Unlock()

	err := fn()

	kv = j.sess.kvBytes()
	j.mu.Lock()
	frame := j.phaseStack[len(j.phaseStack)-1]
	j.phaseStack = j.phaseStack[:len(j.phaseStack)-1]
	j.stats.Phases = append(j.stats.Phases, PhaseStat{
		Name:         frame.name,
		Wall:         time.Since(frame.start),
		Sim:          j.clock.Elapsed() - frame.simStart,
		Shuffles:     frame.shuffles,
		ShuffleBytes: frame.shuffleBytes,
		KVBytes:      kv - frame.kvBytes,
	})
	j.mu.Unlock()
	return err
}

// Stats returns a snapshot of the execution statistics accumulated so far.
// Round, shuffle, phase, pipeline and recovery counters are per job; the
// store-derived counters (KVReads, cache hits, backend stats, ...) aggregate
// the session's stores, which concurrent jobs share.
func (j *Job) Stats() Stats {
	j.mu.Lock()
	st := j.stats
	st.Phases = append([]PhaseStat(nil), j.stats.Phases...)
	st.MachineQueries = append([]int64(nil), j.stats.MachineQueries...)
	st.MachineBusy = append([]time.Duration(nil), j.stats.MachineBusy...)
	started := j.started
	j.mu.Unlock()

	s := j.sess
	s.mu.Lock()
	for _, store := range s.stores {
		ds := store.Stats()
		st.KVReads += ds.Reads
		st.KVWrites += ds.Writes
		st.KVBytesRead += ds.BytesRead
		st.KVBytesWritten += ds.BytesWritten
		st.KVShardVisits += ds.ShardVisits
		st.LocalReads += ds.LocalReads
		st.RemoteReads += ds.RemoteReads
		st.KVRemoteBytes += ds.RemoteBytes
		st.KVFailovers += ds.Failovers
		st.KVRetries += ds.Retries
		st.KVHedges += ds.Hedges
		st.KVDeadlineExceeded += ds.DeadlineExceeded
		bs := store.BackendStats()
		st.Backend.Kind = bs.Kind
		st.Backend.DiskBytes += bs.DiskBytes
		st.Backend.ResidentBytes += bs.ResidentBytes
		st.Backend.WireReadOps += bs.WireReadOps
		st.Backend.WireWriteOps += bs.WireWriteOps
		st.Backend.WireBytes += bs.WireBytes
		st.Backend.WireReadTime += bs.WireReadTime
		st.Backend.WireWriteTime += bs.WireWriteTime
		st.Backend.Reconnects += bs.Reconnects
	}
	// Per-machine caches are persistent (they outlive rounds and jobs), so
	// their counters are aggregated here rather than accumulated per round.
	for _, cs := range s.caches {
		for _, c := range cs {
			if c != nil {
				st.CacheHits += c.Hits()
				st.CacheMisses += c.Misses()
			}
		}
	}
	s.mu.Unlock()

	st.KVBytesTotal = st.KVBytesRead + st.KVBytesWritten
	if reads := st.LocalReads + st.RemoteReads; reads > 0 {
		st.RemoteFrac = float64(st.RemoteReads) / float64(reads)
	}
	st.Wall = time.Since(started)
	st.Sim = j.clock.Elapsed()
	return st
}

// MeasuredCostModel derives a cost model from the wire round trips measured
// across all of the session's stores.  It reports false unless the session
// uses a transport-backed backend (rpc) that has served at least one
// operation; callers then fall back to the configured simulated model.
func (j *Job) MeasuredCostModel() (simtime.CostModel, bool) {
	bs := j.Stats().Backend
	read, write := bs.MeasuredReadRTT(), bs.MeasuredWriteRTT()
	if read == 0 && write == 0 {
		return simtime.CostModel{}, false
	}
	return simtime.Measured(string(bs.Kind), read, write), true
}

// Run executes one AMPC round — a segment of one round — on the session's
// persistent worker pool.  Work item i is assigned to machine i mod Machines
// (or Partitioner(i) when set); each machine processes its items with Threads
// concurrent workers sharing one Ctx.  The simulated duration of the round is
// the maximum over machines of (compute + key-value latency / Threads),
// modeling the fact that multithreading hides lookup latency but not
// computation.
func (j *Job) Run(round Round) error {
	return j.runStages([]StagedRound{{Round: round}}, nil)
}
