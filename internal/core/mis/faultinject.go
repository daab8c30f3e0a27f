package mis

import (
	"ampcgraph/internal/ampc"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
)

// storeFailer is the part of the hash-table API the fault-injection tests
// need.
type storeFailer interface {
	FailShard(i int)
}

// runWithFaultInjection runs the MIS pipeline on an existing runtime and
// invokes inject on the stores created so far right before the search round.
// It exists to test the fault-tolerance property of the model (Section 2);
// the production entry points Run and RunTruncated do not inject failures.
func runWithFaultInjection(rt *ampc.Runtime, g *graph.Graph, inject func([]storeFailer)) ([]bool, error) {
	cfg := rt.Config()
	n := g.NumNodes()
	rt.SetOwnership(graph.DegreeWeights(g))
	prio := rng.VertexPriorities(cfg.Seed, n)
	directed, err := directGraph(rt, g, prio)
	if err != nil {
		return nil, err
	}
	store, err := rt.OpenStore("directed-graph")
	if err != nil {
		return nil, err
	}
	err = rt.Run(ampc.Round{
		Name:        "kv-write",
		Items:       n,
		Partitioner: rt.OwnerPartitioner(n),
		Body: func(ctx *ampc.Ctx, item int) error {
			return ctx.Write(store, uint64(item), directed[item].Encoded())
		},
	})
	if err != nil {
		return nil, err
	}

	inject([]storeFailer{store})

	inMIS := make([]bool, n)
	caches := make([]*statusCache, cfg.Machines)
	for i := range caches {
		caches[i] = newStatusCache()
	}
	err = rt.Run(ampc.Round{
		Name:        "is-in-mis",
		Items:       n,
		Read:        store,
		Partitioner: rt.OwnerPartitioner(n),
		Body: func(ctx *ampc.Ctx, item int) error {
			s := &searcher{ctx: ctx, cache: caches[ctx.Machine], prio: prio}
			in, err := s.inMIS(graph.NodeID(item), directed[item])
			if err != nil {
				return err
			}
			inMIS[item] = in
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return inMIS, nil
}

// Compile-time check that the hash table implements the fault-injection hook.
var _ storeFailer = (*dht.Store)(nil)
