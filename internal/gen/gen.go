// Package gen provides deterministic workload generators for the graphs used
// throughout the paper's evaluation (Section 5.2): the 2×k cycle family used
// for the 1-vs-2-Cycle experiments, and synthetic, scaled-down stand-ins for
// the proprietary real-world datasets (Orkut, Twitter, Friendster, ClueWeb,
// Hyperlink2012).  All generators are seeded and reproducible.
package gen

import (
	"math/rand"
	"slices"

	"ampcgraph/internal/graph"
)

// Cycle returns a single cycle on n >= 3 vertices.
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic("gen: cycle needs at least 3 vertices")
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.Build()
}

// TwoCycles returns two disjoint cycles on k vertices each (the "2×k" graphs
// of Section 5.6); the total vertex count is 2k.
func TwoCycles(k int) *graph.Graph {
	if k < 3 {
		panic("gen: two-cycles needs k >= 3")
	}
	b := graph.NewBuilder(2 * k)
	for i := 0; i < k; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%k))
		b.AddEdge(graph.NodeID(k+i), graph.NodeID(k+(i+1)%k))
	}
	return b.Build()
}

// OneOrTwoCycles returns a single cycle on 2k vertices when single is true
// and two cycles on k vertices otherwise.  The vertex identifiers are shuffled
// with the seed so that the structure is not obvious from the labeling, which
// mirrors the hardness of the 1-vs-2-Cycle problem.
func OneOrTwoCycles(k int, single bool, seed int64) *graph.Graph {
	n := 2 * k
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	id := func(i int) graph.NodeID { return graph.NodeID(perm[i]) }
	b := graph.NewBuilder(n)
	if single {
		for i := 0; i < n; i++ {
			b.AddEdge(id(i), id((i+1)%n))
		}
	} else {
		for i := 0; i < k; i++ {
			b.AddEdge(id(i), id((i+1)%k))
			b.AddEdge(id(k+i), id(k+(i+1)%k))
		}
	}
	return b.Build()
}

// Path returns a simple path on n vertices.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build()
}

// Star returns a star with one center (vertex 0) and n-1 leaves.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.NodeID(i))
	}
	return b.Build()
}

// Clique returns the complete graph on n vertices.
func Clique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return b.Build()
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// RandomTree returns a uniformly random labelled tree on n vertices built by
// attaching each vertex i >= 1 to a uniformly random earlier vertex.
func RandomTree(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
	}
	return b.Build()
}

// RandomBoundedDegreeTree returns a random tree with maximum degree at most
// maxDeg (>= 2).  It is used to exercise the ternarized-MSF code paths, whose
// analysis (Appendix A) assumes degree <= 3.
func RandomBoundedDegreeTree(n, maxDeg int, seed int64) *graph.Graph {
	if maxDeg < 2 {
		panic("gen: maxDeg must be >= 2")
	}
	rng := rand.New(rand.NewSource(seed))
	deg := make([]int, n)
	b := graph.NewBuilder(n)
	// Candidate parents with residual capacity.
	candidates := []int{0}
	for i := 1; i < n; i++ {
		at := rng.Intn(len(candidates))
		j := candidates[at]
		b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		deg[j]++
		deg[i]++
		if deg[j] >= maxDeg {
			// Swap-remove j: each vertex enters candidates once, so the
			// drawn slot is its only one.
			candidates[at] = candidates[len(candidates)-1]
			candidates = candidates[:len(candidates)-1]
		}
		if deg[i] < maxDeg {
			candidates = append(candidates, i)
		}
		if len(candidates) == 0 {
			candidates = append(candidates, i) // degenerate guard; should not happen for maxDeg >= 2
		}
	}
	return b.Build()
}

// ErdosRenyi returns a G(n, m) random graph with (approximately) m distinct
// undirected edges sampled uniformly.
func ErdosRenyi(n int, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// PreferentialAttachment returns a power-law graph built by preferential
// attachment: each new vertex attaches to k existing vertices chosen with
// probability proportional to their degree.  This produces the heavy-tailed
// degree distributions that drive the skew effects discussed for the ClueWeb
// and Hyperlink graphs in Section 5.3.
func PreferentialAttachment(n, k int, seed int64) *graph.Graph {
	b := graph.NewBuilder(n)
	preferentialAttachment(b, 0, n, k, seed)
	return b.Build()
}

// preferentialAttachment adds PreferentialAttachment(n, k, seed)'s edges to
// b, with every endpoint shifted by offset.
func preferentialAttachment(b *graph.Builder, offset graph.NodeID, n, k int, seed int64) {
	if n < k+1 {
		panic("gen: preferential attachment needs n > k")
	}
	rng := rand.New(rand.NewSource(seed))
	b.Grow(paEdges(n, k))
	// Repeated-endpoint list: choosing a uniform element is degree-proportional.
	endpoints := make([]graph.NodeID, 0, 2*n*k)
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			b.AddEdge(offset+graph.NodeID(i), offset+graph.NodeID(j))
			endpoints = append(endpoints, graph.NodeID(i), graph.NodeID(j))
		}
	}
	chosen := make([]graph.NodeID, 0, k)
	for v := k + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < k {
			t := endpoints[rng.Intn(len(endpoints))]
			if int(t) != v && !slices.Contains(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		// Append the chosen targets in ascending order: the endpoints list
		// feeds the draws of later vertices, so this order is part of what a
		// seed generates.
		slices.Sort(chosen)
		for _, t := range chosen {
			b.AddEdge(offset+graph.NodeID(v), offset+t)
			endpoints = append(endpoints, graph.NodeID(v), t)
		}
	}
}

// paEdges is the number of edges preferentialAttachment adds: a clique on
// the first k+1 vertices, then k for each later one.
func paEdges(n, k int) int { return k*(k+1)/2 + (n-k-1)*k }

// RMAT returns an RMAT-style power-law graph on 2^scale vertices with
// approximately edgeFactor*2^scale undirected edges, using the standard
// (a,b,c,d) = (0.57,0.19,0.19,0.05) parameters used by Graph500-style
// generators.  Self-loops and duplicates are dropped, so the realized edge
// count is slightly smaller.
func RMAT(scale int, edgeFactor int, seed int64) *graph.Graph {
	n := 1 << scale
	m := n * edgeFactor
	rng := rand.New(rand.NewSource(seed))
	const a, b, c = 0.57, 0.19, 0.19
	bld := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: nothing
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		bld.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return bld.Build()
}

// DegreeProportionalWeights assigns the MSF edge weights used in Section 5.2:
// the weight of edge (u, v) is proportional to deg(u) + deg(v).
func DegreeProportionalWeights(g *graph.Graph) *graph.Graph {
	return g.WithWeights(func(u, v graph.NodeID) float64 {
		return float64(g.Degree(u) + g.Degree(v))
	})
}

// RandomWeights assigns independent uniform (0,1) weights to every edge,
// which is the reduction from connectivity to MSF discussed in Section 5.7.
// Weights are drawn in ForEachEdge order, so a seed always yields the same
// weighted graph.
func RandomWeights(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return g.WithEdgeWeights(func(_, _ graph.NodeID) float64 { return rng.Float64() })
}
