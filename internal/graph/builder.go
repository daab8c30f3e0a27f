package graph

import (
	"cmp"
	"fmt"
	"slices"

	"ampcgraph/internal/keysort"
)

// Builder accumulates edges and produces an immutable Graph.  Edges may be
// added in any order and direction; Build symmetrizes, sorts neighbor lists,
// removes self-loops and collapses parallel edges (keeping the minimum weight
// for weighted graphs, which is the natural choice for MSF workloads).
//
// Build is a counting sort, not a comparison sort over the edge list.  One
// pass counts every vertex's degree over both directions, self-loops
// skipped, straight into the CSR offsets; a second places each half-edge at
// its vertex's cursor.  Then each vertex's list is sorted stably by neighbour
// id with internal/keysort and deduplicated in place, the offsets compacting
// with it; a run of parallel edges keeps its first cmp.Less-minimum weight.
// Beyond the builder's own edge slice and the arrays the graph keeps, Build
// allocates only the cursor (one int64 per vertex) and sort scratch sized to
// the largest list.  The graph's arrays are sized to the half-edges placed,
// so a builder fed many parallel edges leaves that slack in their capacity.
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

// Grow makes room for m more edges, as slices.Grow does: a hint for callers
// that know their edge count, which saves the edge slice's regrowth copies.
func (b *Builder) Grow(m int) {
	b.edges = slices.Grow(b.edges, m)
}

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
	n := b.n
	g := &Graph{n: n, offsets: make([]int64, n+1)}
	for _, e := range b.edges {
		if int(e.U) >= n || int(e.V) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n))
		}
		if e.U != e.V {
			g.offsets[e.U+1]++
			g.offsets[e.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	g.adj = make([]NodeID, g.offsets[n])
	if b.weighted {
		g.weights = make([]float64, g.offsets[n])
	}
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	for _, e := range b.edges {
		if e.U == e.V {
			continue
		}
		i, j := cursor[e.U], cursor[e.V]
		cursor[e.U], cursor[e.V] = i+1, j+1
		g.adj[i], g.adj[j] = e.V, e.U
		if g.weights != nil {
			g.weights[i], g.weights[j] = e.W, e.W
		}
	}
	g.sortLists()
	return g
}

// sortLists sorts every neighbour list of a freshly placed graph stably by
// neighbour id and drops its repeats, compacting the lists to the front of
// adj (and weights) and offsets with them.  A run of parallel edges keeps
// its first minimum weight under cmp.Less.
func (g *Graph) sortLists() {
	var maxDeg int64
	for v := 0; v < g.n; v++ {
		maxDeg = max(maxDeg, g.offsets[v+1]-g.offsets[v])
	}
	pairs := make([]keysort.Pair, maxDeg)
	tmp := make([]keysort.Pair, maxDeg)
	var ws []float64 // the list's weights, read while the list is rewritten
	if g.weights != nil {
		ws = make([]float64, maxDeg)
	}
	var out int64
	for v := 0; v < g.n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		g.offsets[v] = out
		p := pairs[:hi-lo]
		for i, u := range g.adj[lo:hi] {
			p[i] = keysort.Pair{Key: uint64(u), Val: uint32(i)}
		}
		if ws != nil {
			copy(ws, g.weights[lo:hi])
		}
		for i, x := range keysort.Sort(p, tmp) {
			u := NodeID(x.Key)
			if i > 0 && u == g.adj[out-1] {
				if ws != nil && cmp.Less(ws[x.Val], g.weights[out-1]) {
					g.weights[out-1] = ws[x.Val]
				}
				continue
			}
			g.adj[out] = u
			if ws != nil {
				g.weights[out] = ws[x.Val]
			}
			out++
		}
	}
	g.offsets[g.n] = out
	g.adj = g.adj[:out]
	if ws != nil {
		g.weights = g.weights[:out]
	}
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
