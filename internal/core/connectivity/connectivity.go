// Package connectivity implements AMPC connected components.
//
// Following Section 3 (and the discussion in Section 5.7), connectivity is
// obtained from the minimum spanning forest machinery: the graph is given
// random edge weights, a spanning forest is computed with the constant-round
// MSF pipeline, and the forest is then collapsed to component labels with the
// pointer-jumping ForestConnectivity routine (Proposition 3.2).
//
// Both hot loops — the truncated Prim searches and the parent-pointer chases
// of the final collapse — inherit the shard-grouped batching of the msf
// package when ampc.Config.Batch is set: lookups travel as block-sized
// ReadMany batches instead of one key-value round trip per key, and the
// component labels are unchanged.
package connectivity

import (
	"fmt"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/core/msf"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/trees"
)

// Result is the output of the AMPC connectivity computation.
type Result struct {
	// Components labels every vertex with a representative of its connected
	// component (the smallest vertex identifier in the component).
	Components []graph.NodeID
	// NumComponents is the number of connected components.
	NumComponents int
	// SpanningForest is the forest used to derive the labels.
	SpanningForest []graph.WeightedEdge
	// Stats are the runtime statistics.
	Stats ampc.Stats
	// MaxPointerChain is the longest pointer chain followed while collapsing
	// the forest.
	MaxPointerChain int
}

// Run computes the connected components of g.
func Run(g *graph.Graph, cfg ampc.Config) (*Result, error) {
	rt := ampc.New(cfg)
	defer rt.Close()
	return RunOn(rt, g)
}

// RunOn computes the connected components of g on an existing runtime — a
// job of a long-lived session, typically.  Every store it opens is private
// to the call (session store names are labels, not unique keys), so
// concurrent connectivity jobs on one session do not interfere; the returned
// Stats are rt's job-level statistics.
func RunOn(rt *ampc.Job, g *graph.Graph) (*Result, error) {
	cfgD := rt.Config()
	n := g.NumNodes()
	res := &Result{}

	// Random edge weights reduce connectivity to minimum spanning forest
	// (§5.7); any spanning forest would do, the random weights simply keep
	// the Prim searches balanced.  The MSF pipeline declares the
	// degree-proportional placement weights, which the random edge weights
	// do not change.
	weighted := g
	if !g.Weighted() {
		weighted = gen.RandomWeights(g, cfgD.Seed+7)
	}

	forest, err := msf.RunOn(rt, weighted)
	if err != nil {
		return nil, err
	}
	res.SpanningForest = forest.Edges

	// ForestConnectivity: root every tree of the forest and pointer-jump the
	// parent relation to component representatives.
	f, err := trees.BuildForest(n, forest.Edges)
	if err != nil {
		return nil, fmt.Errorf("connectivity: invalid spanning forest: %w", err)
	}
	parent := make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		p := f.Parent(graph.NodeID(v))
		if p == graph.None {
			p = graph.NodeID(v)
		}
		parent[v] = p
	}
	roots, maxChain, err := msf.PointerJump(rt, parent, "-cc")
	if err != nil {
		return nil, err
	}
	res.MaxPointerChain = maxChain

	// Canonicalize labels to the smallest vertex of each component: vertices
	// are visited in increasing order, so the first one seen under a root is
	// the component's minimum.
	smallest := make([]graph.NodeID, n) // indexed by root
	for i := range smallest {
		smallest[i] = graph.None
	}
	res.Components = make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		r := roots[v]
		if smallest[r] == graph.None {
			smallest[r] = graph.NodeID(v)
			res.NumComponents++
		}
		res.Components[v] = smallest[r]
	}
	res.Stats = rt.Stats()
	return res, nil
}
