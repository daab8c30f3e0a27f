package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Builder accumulates edges and produces an immutable Graph.  Edges may be
// added in any order and direction; Build symmetrizes, sorts neighbor lists,
// removes self-loops and collapses parallel edges (keeping the minimum weight
// for weighted graphs, which is the natural choice for MSF workloads).
type Builder struct {
	n        int
	edges    []WeightedEdge
	weighted bool
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NumNodes returns the number of vertices the built graph will have.
func (b *Builder) NumNodes() int { return b.n }

// AddEdge adds an unweighted undirected edge.
func (b *Builder) AddEdge(u, v NodeID) {
	b.edges = append(b.edges, WeightedEdge{u, v, 1})
}

// AddWeightedEdge adds a weighted undirected edge.
func (b *Builder) AddWeightedEdge(u, v NodeID, w float64) {
	b.weighted = true
	b.edges = append(b.edges, WeightedEdge{u, v, w})
}

// Build materializes the graph.  It panics if an endpoint is out of range,
// since that is always a programming error in this repository.
func (b *Builder) Build() *Graph {
	for _, e := range b.edges {
		if int(e.U) >= b.n || int(e.V) >= b.n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, b.n))
		}
	}
	// Canonicalize, drop self loops, dedup keeping minimum weight.
	canon := make([]WeightedEdge, 0, len(b.edges))
	for _, e := range b.edges {
		if e.U == e.V {
			continue
		}
		canon = append(canon, e.Canonical())
	}
	// The order is total up to exact duplicates, which dedup cannot tell
	// apart, so an unstable sort builds the same graph.
	slices.SortFunc(canon, func(a, b WeightedEdge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		if c := cmp.Compare(a.V, b.V); c != 0 {
			return c
		}
		return cmp.Compare(a.W, b.W)
	})
	dedup := canon[:0]
	for _, e := range canon {
		if len(dedup) > 0 && dedup[len(dedup)-1].U == e.U && dedup[len(dedup)-1].V == e.V {
			continue
		}
		dedup = append(dedup, e)
	}

	g := &Graph{n: b.n}
	g.offsets = make([]int64, b.n+1)
	deg := make([]int64, b.n)
	for _, e := range dedup {
		deg[e.U]++
		deg[e.V]++
	}
	for v := 0; v < b.n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	g.adj = make([]NodeID, g.offsets[b.n])
	if b.weighted {
		g.weights = make([]float64, g.offsets[b.n])
	}
	cursor := make([]int64, b.n)
	copy(cursor, g.offsets[:b.n])
	place := func(u, v NodeID, w float64) {
		i := cursor[u]
		cursor[u]++
		g.adj[i] = v
		if g.weights != nil {
			g.weights[i] = w
		}
	}
	for _, e := range dedup {
		place(e.U, e.V, e.W)
		place(e.V, e.U, e.W)
	}
	// Every neighbor list is already sorted: dedup is in (U, V) order with
	// U < V, so vertex x first receives its smaller neighbors — the U of the
	// edges (u, x), met in increasing u, all before any edge whose U is x —
	// and then its larger ones, the V of the edges (x, v), in increasing v.
	return g
}

// FromEdges builds an unweighted graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// FromWeightedEdges builds a weighted graph with n vertices from an edge list.
func FromWeightedEdges(n int, edges []WeightedEdge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddWeightedEdge(e.U, e.V, e.W)
	}
	return b.Build()
}
