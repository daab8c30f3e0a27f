package mis

import (
	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
)

// Shared is the per-session substrate of the MIS computation: the host-side
// DirectGraph shuffle and the directed-graph store, built once and reused by
// every query job of the session.  This is the serving-layer split of the
// one-shot Run: the store stays resident (ampc.Session.OpenSharedStore) and
// frozen, so N concurrent jobs pay for the shuffle and the KV-write exactly
// once, while each Run call executes only the per-job search rounds — with
// job-private result state — through the session's compiled-plan cache.
type Shared struct {
	prio     []uint64
	directed []codec.NodeList
	store    *dht.Store
	spans    []dht.RangeSet
}

// sharedStoreName is the session-wide registration key of the directed-graph
// table ("mis-" prefixed so a matching.Shared on the same session never
// collides).
const sharedStoreName = "mis-directed-graph"

// NewShared prepares the shared MIS substrate on rt's session: ownership
// declaration, vertex priorities, the DirectGraph shuffle and the
// directed-graph store, written and frozen.  The shuffle and the write are
// charged to rt's job (callers typically use a dedicated preparation job).
// Calling NewShared again on the same session reuses the already-filled
// store and skips the write.
func NewShared(rt *ampc.Runtime, g *graph.Graph) (*Shared, error) {
	cfgD := rt.Config()
	n := g.NumNodes()
	rt.SetOwnership(graph.DegreeWeights(g))
	prio := rng.VertexPriorities(cfgD.Seed, n)
	directed, err := directGraph(rt, g, prio)
	if err != nil {
		return nil, err
	}
	store, err := rt.OpenSharedStore(sharedStoreName)
	if err != nil {
		return nil, err
	}
	if !store.Frozen() {
		write := rt.WriteTableRound("kv-write", store, n, 1, func(item int) []byte {
			return directed[item].Encoded()
		})
		if err := rt.Phase("KV-Write", func() error { return rt.Run(write) }); err != nil {
			return nil, err
		}
		store.Freeze()
	}
	return &Shared{
		prio:     prio,
		directed: directed,
		store:    store,
		spans:    rt.WriteRanges(n),
	}, nil
}

// Run executes one MIS query as a job on rt against the shared substrate.
// All result state (statuses, caches, the InMIS vector) is private to the
// job, so any number of Run calls may proceed concurrently on jobs of the
// same session; every one computes the same set the one-shot Run does.  The
// search rounds are compiled under a fixed plan key, so repeated queries hit
// the session's plan cache instead of re-deriving the conflict analysis.
func (sh *Shared) Run(rt *ampc.Runtime) (*Result, error) {
	local, spill, inMIS := searchStages(rt, sh.store, sh.directed, sh.prio, sh.spans)
	plan := rt.CompilePlan("mis-search", []ampc.StagedRound{
		{Phase: "IsInMIS", Round: local},
		{Phase: "IsInMIS-spill", Round: spill},
	})
	if err := rt.RunPlan(plan); err != nil {
		return nil, err
	}
	return &Result{InMIS: inMIS, SearchRounds: 1, Stats: rt.Stats()}, nil
}
