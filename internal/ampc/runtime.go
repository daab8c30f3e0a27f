package ampc

import (
	"context"

	"ampcgraph/internal/dht"
)

// Runtime is one job bound to a session, exposing both layers' APIs as one
// handle.  The historical one-shot API is preserved exactly: New creates a
// private Session plus its single Job, and Close tears both down.  Runtimes
// returned by Session.NewJob wrap the shared session instead — Close then
// finishes only the job, taking the stores the job opened with it, and the
// session (pool, resident stores, ownership, plan cache) stays up for the
// next query.
//
// The embedded layers split the API: Session carries the substrate
// (SetOwnership, OpenSharedStore, partitioners, CompilePlan), Job carries the
// execution (Run, RunPipeline, RunStaged, RunPlan, Shuffle, Phase, Stats,
// Clock).  OpenStore on the handle shadows the session's: it opens the job's
// own stores.
type Runtime struct {
	*Session
	*Job
	ownsSession bool
}

// New returns a one-shot runtime: a fresh private Session with one implicit
// Job.  Close releases both.  Long-lived serving callers use NewSession +
// Session.NewJob instead, so many queries share one pool and one set of
// stores.
func New(cfg Config) *Runtime {
	s := NewSession(cfg)
	return &Runtime{Session: s, Job: s.newJob(context.Background(), false), ownsSession: true}
}

// OpenStore creates the next distributed hash table (D0, D1, …) of this job's
// computation.  The store belongs to the job: its later rounds read it, and
// Job.Close releases it — memory, disk logs, rpc listener — folding its
// counters into the session-wide statistics.  It must not be handed to
// another job: tables that outlive one job are opened on the session
// (Session.OpenStore, OpenSharedStore).  A closed job gets ErrClosed.
func (r *Runtime) OpenStore(name string) (*dht.Store, error) {
	return r.Session.openStore(name, r.Job)
}

// Close finishes the job — releasing the stores it opened — and, for runtimes
// created with New, closes the underlying session too (pool, disk footprint)
// — the historical one-shot teardown.  For job runtimes from Session.NewJob
// the session survives.  Safe to call more than once; statistics remain
// readable after Close.
func (r *Runtime) Close() {
	r.Job.Close()
	if r.ownsSession {
		r.Session.Close()
	}
}

// Rebalance re-derives the weighted ownership boundaries from the load
// observed since the last rebalance (or since the session was created) and
// migrates shard data accordingly.  It is meant to be called between
// pipeline segments: it serializes against this job's rounds (the per-job
// run lock) and against every other job's in-flight rounds (the session's
// exclusive execution lock), so the migration never interleaves with a
// running round.  Partitioners and stores built after the call answer from
// the updated table, and cached plans are invalidated (the ownership
// generation they were compiled under is gone).
//
// Under any placement other than PlacementWeighted, or before any ownership
// table and observed load exist, Rebalance is a documented no-op that
// returns zero stats and a nil error — callers can run the same adaptive
// arm against every placement without branching.
func (r *Runtime) Rebalance() (RebalanceStats, error) {
	j := r.Job
	j.runMu.Lock()
	defer j.runMu.Unlock()
	return r.Session.rebalance(j)
}
