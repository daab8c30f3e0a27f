// Package graph provides the immutable compressed sparse row (CSR) graph
// representation shared by every algorithm in this repository, together with
// builders, edge-list utilities and basic structural statistics.
//
// Graphs are undirected and simple: the builder symmetrizes edges, removes
// self-loops and collapses parallel edges.  Vertices are identified by dense
// integer NodeIDs in [0, NumNodes).  Graphs may optionally carry per-edge
// float64 weights; for an unweighted graph every weight query returns 1.
package graph

import (
	"cmp"
	"fmt"
	"sort"
)

// NodeID identifies a vertex.  Vertex identifiers are dense: a graph with n
// vertices uses exactly the identifiers 0..n-1.
type NodeID uint32

// None is the sentinel "no vertex" value.
const None NodeID = ^NodeID(0)

// Edge is an unweighted undirected edge.
type Edge struct {
	U, V NodeID
}

// WeightedEdge is an undirected edge with a weight.
type WeightedEdge struct {
	U, V NodeID
	W    float64
}

// Canonical returns the edge with endpoints ordered so that U <= V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Canonical returns the weighted edge with endpoints ordered so that U <= V.
func (e WeightedEdge) Canonical() WeightedEdge {
	if e.U > e.V {
		return WeightedEdge{e.V, e.U, e.W}
	}
	return e
}

// Graph is an immutable undirected graph in CSR form.  The zero value is an
// empty graph with no vertices.
type Graph struct {
	n       int
	offsets []int64   // len n+1
	adj     []NodeID  // neighbor lists, concatenated
	weights []float64 // parallel to adj; nil when the graph is unweighted
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return g.n }

// NumDirectedEdges returns the number of directed edge slots (each undirected
// edge is stored twice).
func (g *Graph) NumDirectedEdges() int64 {
	if g.n == 0 {
		return 0
	}
	return g.offsets[g.n]
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.NumDirectedEdges() / 2 }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the neighbor list of v.  The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(v).  It returns
// nil for an unweighted graph.
func (g *Graph) NeighborWeights(v NodeID) []float64 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// EdgeWeight returns the weight of the i-th incident edge of v (by the
// ordering of Neighbors).  Unweighted graphs report weight 1.
func (g *Graph) EdgeWeight(v NodeID, i int) float64 {
	if g.weights == nil {
		return 1
	}
	return g.weights[g.offsets[v]+int64(i)]
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v NodeID, w float64)) {
	for u := 0; u < g.n; u++ {
		nu := NodeID(u)
		nbrs := g.Neighbors(nu)
		for i, v := range nbrs {
			if nu < v {
				fn(nu, v, g.EdgeWeight(nu, i))
			}
		}
	}
}

// Edges materializes the undirected edge list with u < v.
func (g *Graph) Edges() []WeightedEdge {
	out := make([]WeightedEdge, 0, g.NumEdges())
	g.ForEachEdge(func(u, v NodeID, w float64) {
		out = append(out, WeightedEdge{u, v, w})
	})
	return out
}

// HasEdge reports whether the undirected edge (u, v) exists.  Neighbor lists
// are sorted, so this is a binary search.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if int(u) >= g.n || int(v) >= g.n {
		return false
	}
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// WeightBetween returns the weight of edge (u, v) and whether it exists.
func (g *Graph) WeightBetween(u, v NodeID) (float64, bool) {
	if int(u) >= g.n || int(v) >= g.n {
		return 0, false
	}
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	if i < len(nbrs) && nbrs[i] == v {
		return g.EdgeWeight(u, i), true
	}
	return 0, false
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d weighted=%v}", g.n, g.NumEdges(), g.Weighted())
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	cp := &Graph{n: g.n}
	cp.offsets = append([]int64(nil), g.offsets...)
	cp.adj = append([]NodeID(nil), g.adj...)
	if g.weights != nil {
		cp.weights = append([]float64(nil), g.weights...)
	}
	return cp
}

// WithWeights returns a copy of g carrying the weights produced by fn(u, v)
// for each undirected edge; both directed slots of the edge receive the same
// weight.  The topology is shared structurally but the weight slice is new.
func (g *Graph) WithWeights(fn func(u, v NodeID) float64) *Graph {
	cp := &Graph{n: g.n, offsets: g.offsets, adj: g.adj}
	cp.weights = make([]float64, len(g.adj))
	for u := 0; u < g.n; u++ {
		nu := NodeID(u)
		nbrs := g.Neighbors(nu)
		for i, v := range nbrs {
			a, b := nu, v
			if a > b {
				a, b = b, a
			}
			cp.weights[g.offsets[nu]+int64(i)] = fn(a, b)
		}
	}
	return cp
}

// WithEdgeWeights returns a copy of g in which every undirected edge carries
// one weight drawn by draw, called exactly once per edge with u < v, in the
// order ForEachEdge visits edges.  The weight is mirrored into v's list by
// binary search, so g must be a built graph: sorted, symmetric neighbor
// lists.  It panics when an edge has no slot in its other endpoint's list.
func (g *Graph) WithEdgeWeights(draw func(u, v NodeID) float64) *Graph {
	cp := &Graph{n: g.n, offsets: g.offsets, adj: g.adj}
	cp.weights = make([]float64, len(g.adj))
	for u := 0; u < g.n; u++ {
		nu := NodeID(u)
		for i, v := range g.Neighbors(nu) {
			if nu >= v {
				continue
			}
			back := g.Neighbors(v)
			j, found := sort.Find(len(back), func(j int) int { return cmp.Compare(nu, back[j]) })
			if !found {
				panic(fmt.Sprintf("graph: edge (%d,%d) has no slot in %d's neighbor list", nu, v, v))
			}
			w := draw(nu, v)
			cp.weights[g.offsets[nu]+int64(i)] = w
			cp.weights[g.offsets[v]+int64(j)] = w
		}
	}
	return cp
}

// Unweighted returns a view of g without edge weights (topology shared).
func (g *Graph) Unweighted() *Graph {
	return &Graph{n: g.n, offsets: g.offsets, adj: g.adj}
}

// Validate checks internal CSR invariants and symmetry.  It is intended for
// tests and returns a descriptive error when an invariant is violated.
func (g *Graph) Validate() error {
	if g.n == 0 {
		if len(g.adj) != 0 {
			return fmt.Errorf("empty graph with %d adjacency entries", len(g.adj))
		}
		return nil
	}
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("offsets length %d, want %d", len(g.offsets), g.n+1)
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("offsets[0] = %d, want 0", g.offsets[0])
	}
	if g.offsets[g.n] != int64(len(g.adj)) {
		return fmt.Errorf("offsets[n] = %d, want %d", g.offsets[g.n], len(g.adj))
	}
	if g.weights != nil && len(g.weights) != len(g.adj) {
		return fmt.Errorf("weights length %d, want %d", len(g.weights), len(g.adj))
	}
	for v := 0; v < g.n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("offsets not monotone at %d", v)
		}
		nbrs := g.Neighbors(NodeID(v))
		for i, u := range nbrs {
			if int(u) >= g.n {
				return fmt.Errorf("vertex %d has out-of-range neighbor %d", v, u)
			}
			if u == NodeID(v) {
				return fmt.Errorf("vertex %d has a self-loop", v)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("vertex %d neighbor list not strictly sorted at %d", v, i)
			}
			if !g.HasEdge(u, NodeID(v)) {
				return fmt.Errorf("edge (%d,%d) present but reverse missing", v, u)
			}
			w1 := g.EdgeWeight(NodeID(v), i)
			w2, _ := g.WeightBetween(u, NodeID(v))
			if w1 != w2 {
				return fmt.Errorf("asymmetric weight on edge (%d,%d): %v vs %v", v, u, w1, w2)
			}
		}
	}
	return nil
}
