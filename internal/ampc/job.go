package ampc

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ampcgraph/internal/dht"
	"ampcgraph/internal/simtime"
)

// Job is one execution against a Session, and the one handle algorithm code
// holds: it carries the per-job simulated clock, statistics, phase stack,
// fault budget, cancellation context and the stores it opened for its own
// rounds (OpenStore), and it embeds the Session it runs on, so the substrate —
// pool, resident stores, caches, ownership table, partitioners — is reached
// through the same value.  Jobs obtained through Session.NewJob run
// concurrently — their machine shares interleave in the per-machine pool
// feeds — and each still observes its own rounds in program order.
//
// Run, RunStaged, Shuffle and Phase execute; Close releases the job's stores
// and its admission slot and marks it finished.  A job made by New owns a
// private session, and its Close closes that too.
type Job struct {
	*Session
	// ownsSession marks the job of New: it holds no admission slot, and its
	// Close also closes the session.
	ownsSession bool

	clock *simtime.Clock
	// ctx cancels the job: a round stops spending fault budget once it is
	// done, drains its in-flight shares and returns the context error; later
	// rounds fail at once.
	ctx context.Context

	mu         sync.Mutex
	stats      Stats
	phaseStack []phaseFrame
	started    time.Time
	// faultBudgetUsed counts the sub-round re-executions spent against
	// Config.FaultBudget (see consumeFaultBudget) — per job, so one flaky
	// query cannot exhaust the recovery budget of its neighbors.
	faultBudgetUsed int

	// runMu serializes execution within this job: every round and shuffle
	// holds it for its whole duration, so concurrent calls on one job queue
	// instead of interleaving — while different jobs interleave freely in
	// the shared pool.
	runMu sync.Mutex

	// owned are the stores opened through Job.OpenStore, released by Close.
	// Guarded by Session.mu.
	owned []ownedStore

	closed atomic.Bool
}

type phaseFrame struct {
	name         string
	start        time.Time
	simStart     time.Duration
	shuffles     int
	shuffleBytes int64
	kvBytes      int64
}

// New returns a one-shot job on a fresh private Session; its Close releases
// both.  Long-lived serving callers use NewSession + Session.NewJob instead,
// so many queries share one pool and one set of stores.
func New(cfg Config) *Job {
	j := NewSession(cfg).newJob(context.Background())
	j.ownsSession = true
	return j
}

// OpenStore creates the next distributed hash table (D0, D1, …) of this job's
// computation, shadowing Session.OpenStore.  The store belongs to the job: its
// later rounds read it, and Close releases it — memory, disk logs, rpc
// listener — folding its counters into the session-wide statistics.  It must
// not be handed to another job: tables that outlive one job are opened on the
// session (Session.OpenStore, OpenSharedStore).  A closed job gets ErrClosed.
func (j *Job) OpenStore(name string) (*dht.Store, error) {
	return j.Session.openStore(name, j)
}

// Close marks the job finished, releases the stores it opened (OpenStore) and
// then its admission slot, unblocking the oldest NewJob waiter — or, for the
// job of New, closes its private session (pool, disk footprint).  It first
// waits for a round the job still has in flight on another goroutine — a
// store is never closed under a running round — so it must not be called
// from inside a Round body.  A shared session is unaffected; only this job's
// rounds and store opens fail with ErrClosed afterwards.  Statistics remain
// readable.  Safe to call more than once.
func (j *Job) Close() {
	if j.closed.Swap(true) {
		return
	}
	j.runMu.Lock()
	j.Session.releaseStores(j)
	j.runMu.Unlock()
	if j.ownsSession {
		j.Session.Close()
	} else {
		j.Session.release()
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
	j.clock.Charge(j.cfg.Model.Price(simtime.Work{simtime.Shuffles: 1, simtime.ShuffleBytes: bytes}, 1))
}

// Phase runs fn as a named, timed phase.  Phases may nest; statistics are
// attributed to the innermost phase.  The KV-byte attribution is measured
// against the session-wide byte count (live and released stores), so with
// concurrent jobs it approximates the phase's share of traffic.
func (j *Job) Phase(name string, fn func() error) error {
	kv := j.Session.kvBytes()
	j.mu.Lock()
	j.phaseStack = append(j.phaseStack, phaseFrame{
		name:     name,
		start:    time.Now(),
		simStart: j.clock.Elapsed(),
		kvBytes:  kv,
	})
	j.mu.Unlock()

	err := fn()

	kv = j.Session.kvBytes()
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
// Round, shuffle, phase and recovery counters are per job; the
// store-derived counters (KVReads, cache hits, backend wire counters, ...)
// are session-wide: the live stores plus the retired total of those closed
// jobs have released, so they never fall when a job closes.  Only the
// footprint gauges Backend.DiskBytes and ResidentBytes are the live stores'.
func (j *Job) Stats() Stats {
	j.mu.Lock()
	st := j.stats
	st.Phases = append([]PhaseStat(nil), j.stats.Phases...)
	st.MachineQueries = append([]int64(nil), j.stats.MachineQueries...)
	st.MachineBusy = append([]time.Duration(nil), j.stats.MachineBusy...)
	started := j.started
	j.mu.Unlock()

	s := j.Session
	s.mu.Lock()
	kv := s.retired
	for _, store := range s.stores {
		kv.addStore(store.Stats(), store.BackendStats(), s.caches[store])
	}
	s.mu.Unlock()
	st.KVReads, st.KVWrites, st.KVBytesRead, st.KVBytesWritten = kv.KVReads, kv.KVWrites, kv.KVBytesRead, kv.KVBytesWritten
	st.KVShardVisits, st.LocalReads, st.RemoteReads, st.KVRemoteBytes = kv.KVShardVisits, kv.LocalReads, kv.RemoteReads, kv.KVRemoteBytes
	st.KVFailovers, st.KVRetries = kv.KVFailovers, kv.KVRetries
	st.Backend, st.CacheHits, st.CacheMisses = kv.Backend, kv.CacheHits, kv.CacheMisses

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
