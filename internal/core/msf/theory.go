package msf

import (
	"fmt"
	"math"
	"sort"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/seq"
)

// DummyWeight is the weight assigned to the cycle edges introduced by
// ternarization (the paper's ⊥ weight, chosen below every real edge weight).
const DummyWeight = -1e18

// Ternarized is the degree-bounded version of a graph produced by Ternarize
// (Algorithm 2, line 2).
type Ternarized struct {
	// Graph is the ternarized graph: every vertex has degree at most 3.
	Graph *graph.Graph
	// Origin maps every ternarized vertex to the original vertex it
	// represents.
	Origin []graph.NodeID
}

// Ternarize replaces every vertex of degree greater than 3 with a cycle of
// length equal to its degree, attaching each incident edge to one cycle
// vertex.  Cycle (dummy) edges get DummyWeight, which is smaller than any
// real edge weight, so they are always part of the minimum spanning forest of
// the ternarized graph and can be stripped from the final answer.
func Ternarize(g *graph.Graph) *Ternarized {
	n := g.NumNodes()
	// Assign one ternarized slot per (vertex, incident edge) for high-degree
	// vertices; low-degree vertices keep a single slot.
	slotOf := make([][]graph.NodeID, n) // slot for the i-th incident edge of v
	var origin []graph.NodeID
	next := graph.NodeID(0)
	alloc := func(orig graph.NodeID) graph.NodeID {
		id := next
		next++
		origin = append(origin, orig)
		return id
	}
	for v := 0; v < n; v++ {
		deg := g.Degree(graph.NodeID(v))
		if deg <= 3 {
			id := alloc(graph.NodeID(v))
			slotOf[v] = make([]graph.NodeID, deg)
			for i := range slotOf[v] {
				slotOf[v][i] = id
			}
			continue
		}
		slotOf[v] = make([]graph.NodeID, deg)
		for i := 0; i < deg; i++ {
			slotOf[v][i] = alloc(graph.NodeID(v))
		}
	}
	b := graph.NewBuilder(int(next))
	// Dummy cycle edges.
	for v := 0; v < n; v++ {
		deg := g.Degree(graph.NodeID(v))
		if deg <= 3 {
			continue
		}
		for i := 0; i < deg; i++ {
			b.AddWeightedEdge(slotOf[v][i], slotOf[v][(i+1)%deg], DummyWeight)
		}
	}
	// Real edges: attach each endpoint to its next free slot, walking edges in
	// a deterministic order and consuming one slot per endpoint.
	indexOf := make([]int, n) // rolling index of the next incident edge per vertex
	g.ForEachEdge(func(u, v graph.NodeID, w float64) {
		su := slotOf[u][indexOf[u]%len(slotOf[u])]
		sv := slotOf[v][indexOf[v]%len(slotOf[v])]
		indexOf[u]++
		indexOf[v]++
		b.AddWeightedEdge(su, sv, w)
	})
	return &Ternarized{Graph: b.Build(), Origin: origin}
}

// RunTheoretical computes the minimum spanning forest following Algorithm 2:
// sparse graphs are ternarized and reduced by a TruncatedPrim pass before the
// dense subroutine finishes the contracted remainder; dense graphs go to the
// dense subroutine directly.  The result is identical to Run's (the minimum
// spanning forest is unique under the package's tie-broken edge order).
func RunTheoretical(g *graph.Graph, cfg ampc.Config) (*Result, error) {
	if !g.Weighted() {
		return nil, fmt.Errorf("msf: input graph must be weighted")
	}
	rt := ampc.New(cfg)
	defer rt.Close()
	cfgD := rt.Config()
	n := float64(g.NumNodes())
	m := float64(g.NumEdges())
	sparseThreshold := math.Pow(n, 1+cfgD.Epsilon/2)

	var result *Result
	var err error
	if m < sparseThreshold && g.MaxDegree() > 3 {
		// Algorithm 2, sparse case: ternarize, reduce with TruncatedPrim,
		// finish on the contracted graph, and strip dummy edges.
		tern := Ternarize(g)
		var inner *Result
		inner, err = runPrimPipeline(rt, tern.Graph, "-ternarized")
		if err != nil {
			return nil, err
		}
		result = &Result{
			ContractedNodes: inner.ContractedNodes,
			MaxPointerChain: inner.MaxPointerChain,
		}
		seen := make(map[graph.Edge]bool)
		for _, e := range inner.Edges {
			if e.W == DummyWeight {
				continue
			}
			ou, ov := tern.Origin[e.U], tern.Origin[e.V]
			c := graph.Edge{U: ou, V: ov}.Canonical()
			if seen[c] {
				continue
			}
			seen[c] = true
			result.Edges = append(result.Edges, graph.WeightedEdge{U: c.U, V: c.V, W: e.W})
			result.TotalWeight += e.W
		}
		result.PrimEdges = len(result.Edges)
	} else {
		result, err = DenseMSF(rt, g, "-dense")
		if err != nil {
			return nil, err
		}
	}
	result.Stats = rt.Stats()
	return result, nil
}

// DenseMSF is the Borůvka-style dense subroutine standing in for
// Proposition 3.1 (the DenseMSF algorithm of Behnezhad et al.): repeated
// minimum-edge contraction rounds, each implemented with the runtime's
// shuffle accounting, until the graph fits in memory.
func DenseMSF(rt *ampc.Job, g *graph.Graph, tag string) (*Result, error) {
	cfg := rt.Config()
	result := &Result{}
	cur := g
	// For every edge of the current contracted graph, remember the original
	// edge of g that produced it, so chosen forest edges can be reported in
	// original coordinates.
	origin := make(map[graph.Edge]graph.WeightedEdge, g.NumEdges())
	g.ForEachEdge(func(u, v graph.NodeID, w float64) {
		c := graph.Edge{U: u, V: v}.Canonical()
		origin[c] = graph.WeightedEdge{U: c.U, V: c.V, W: w}
	})
	threshold := cfg.SpaceBudget(g.NumNodes()) * 64
	phase := 0
	for int(cur.NumEdges()) > threshold {
		phase++
		name := fmt.Sprintf("Boruvka%s-%d", tag, phase)
		var mapping []graph.NodeID
		err := rt.Phase(name, func() error {
			rt.RecordShuffle(name+"-minedge", cur.NumEdges()*12)
			// Every vertex picks its minimum incident edge; the chosen edges
			// are forest edges (cut property) and define the contraction.
			// Ties are broken by the original edge identities so that every
			// phase selects edges of the same (unique) minimum spanning
			// forest.
			ds := seq.NewDSU(cur.NumNodes())
			for v := 0; v < cur.NumNodes(); v++ {
				nv := graph.NodeID(v)
				var best graph.WeightedEdge
				var bestOrig graph.WeightedEdge
				found := false
				for _, u := range cur.Neighbors(nv) {
					o := origin[graph.Edge{U: nv, V: u}.Canonical()]
					if !found || edgeLess(o, bestOrig) {
						found = true
						best = graph.WeightedEdge{U: nv, V: u, W: o.W}
						bestOrig = o
					}
				}
				if !found {
					continue
				}
				if ds.Union(best.U, best.V) {
					result.Edges = append(result.Edges, bestOrig)
				}
			}
			mapping = make([]graph.NodeID, cur.NumNodes())
			for v := 0; v < cur.NumNodes(); v++ {
				mapping[v] = ds.Find(graph.NodeID(v))
			}
			rt.RecordShuffle(name+"-contract", cur.NumEdges()*12)
			return nil
		})
		if err != nil {
			return nil, err
		}
		next, liftOneLevel := contractWithOrigins(cur, mapping)
		// Compose the bookkeeping: an edge of the next graph maps through the
		// current graph's edge down to an edge of the original graph.
		nextOrigin := make(map[graph.Edge]graph.WeightedEdge, len(liftOneLevel))
		for ce, curEdge := range liftOneLevel {
			nextOrigin[ce] = origin[graph.Edge{U: curEdge.U, V: curEdge.V}.Canonical()]
		}
		cur, origin = next, nextOrigin
		if phase > 64 {
			return nil, fmt.Errorf("msf: dense subroutine did not converge")
		}
	}
	// Finish in memory with Kruskal over the remaining contracted edges,
	// ordered by their original identities so ties stay consistent.
	err := rt.Phase("FinishDense"+tag, func() error {
		remaining := cur.Edges()
		sort.Slice(remaining, func(i, j int) bool {
			oi := origin[graph.Edge{U: remaining[i].U, V: remaining[i].V}.Canonical()]
			oj := origin[graph.Edge{U: remaining[j].U, V: remaining[j].V}.Canonical()]
			return edgeLess(oi, oj)
		})
		ds := seq.NewDSU(cur.NumNodes())
		for _, e := range remaining {
			if ds.Union(e.U, e.V) {
				result.Edges = append(result.Edges, origin[graph.Edge{U: e.U, V: e.V}.Canonical()])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dedupForest(result)
	return result, nil
}

func dedupForest(result *Result) {
	seen := make(map[graph.Edge]bool, len(result.Edges))
	out := result.Edges[:0]
	total := 0.0
	for _, e := range result.Edges {
		c := graph.Edge{U: e.U, V: e.V}.Canonical()
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, graph.WeightedEdge{U: c.U, V: c.V, W: e.W})
		total += e.W
	}
	result.Edges = out
	result.TotalWeight = total
}
