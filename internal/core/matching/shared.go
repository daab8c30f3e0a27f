package matching

import (
	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
)

// Shared is the per-session substrate of the maximal matching computation:
// the host-side PermuteGraph shuffle and the edge-sorted store, built once
// and reused by every query job of the session.  Mirrors mis.Shared — the
// store stays resident (ampc.Session.OpenSharedStore) and frozen, so N
// concurrent jobs pay for the shuffle and the KV-write exactly once, while
// each Run call executes only the per-job search rounds with job-private
// result state, through the session's compiled-plan cache.
type Shared struct {
	rank   RankFunc
	sorted []codec.NodeList
	store  *dht.Store
	spans  []dht.RangeSet
}

// sharedStoreName is the session-wide registration key of the edge-sorted
// table ("mm-" prefixed so a mis.Shared on the same session never collides).
const sharedStoreName = "mm-edge-sorted-graph"

// NewShared prepares the shared matching substrate on rt's session under the
// uniform edge ranking of the session's seed (as Run uses): ownership
// declaration, the PermuteGraph shuffle and the edge-sorted store, written
// and frozen.  The shuffle and the write are charged to rt's job.  Calling
// NewShared again on the same session reuses the already-filled store and
// skips the write.
func NewShared(rt *ampc.Runtime, g *graph.Graph) (*Shared, error) {
	cfgD := rt.Config()
	n := g.NumNodes()
	rank := UniformEdgeRank(cfgD.Seed)
	rt.SetOwnership(graph.DegreeWeights(g))
	sorted, err := permuteGraph(rt, g, rank, "")
	if err != nil {
		return nil, err
	}
	store, err := rt.OpenSharedStore(sharedStoreName)
	if err != nil {
		return nil, err
	}
	if !store.Frozen() {
		write := rt.WriteTableRound("kv-write", store, n, 1, func(item int) []byte {
			return sorted[item].Encoded()
		})
		if err := rt.Phase("KV-Write", func() error { return rt.Run(write) }); err != nil {
			return nil, err
		}
		store.Freeze()
	}
	return &Shared{
		rank:   rank,
		sorted: sorted,
		store:  store,
		spans:  rt.WriteRanges(n),
	}, nil
}

// Run executes one maximal matching query as a job on rt against the shared
// substrate.  All result state (the matching, vertex/edge caches) is private
// to the job, so any number of Run calls may proceed concurrently on jobs of
// the same session; every one computes the same matching the one-shot Run
// does.  The search rounds are compiled under a fixed plan key, so repeated
// queries hit the session's plan cache.
func (sh *Shared) Run(rt *ampc.Runtime) (*Result, error) {
	local, spill, matching := searchStages(rt, sh.store, sh.sorted, sh.rank, sh.spans, "")
	plan := rt.CompilePlan("mm-search", []ampc.StagedRound{
		{Phase: "IsInMM", Round: local},
		{Phase: "IsInMM-spill", Round: spill},
	})
	if err := rt.RunPlan(plan); err != nil {
		return nil, err
	}
	return &Result{Matching: matching, Stats: rt.Stats(), SearchRounds: 1}, nil
}
