package graph_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
)

// buildRef is Builder.Build as it was before it stopped sorting with
// reflection: sort.Slice over the canonical edge list, then sort.Slice over
// every neighbour list (through an index permutation when weighted).  It
// returns the CSR arrays the graph would hold.
func buildRef(n int, edges []graph.WeightedEdge, weighted bool) (offsets []int64, adj []graph.NodeID, weights []float64) {
	canon := make([]graph.WeightedEdge, 0, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		canon = append(canon, e.Canonical())
	}
	sort.Slice(canon, func(i, j int) bool {
		if canon[i].U != canon[j].U {
			return canon[i].U < canon[j].U
		}
		if canon[i].V != canon[j].V {
			return canon[i].V < canon[j].V
		}
		return canon[i].W < canon[j].W
	})
	dedup := canon[:0]
	for _, e := range canon {
		if len(dedup) > 0 && dedup[len(dedup)-1].U == e.U && dedup[len(dedup)-1].V == e.V {
			continue
		}
		dedup = append(dedup, e)
	}
	offsets = make([]int64, n+1)
	deg := make([]int64, n)
	for _, e := range dedup {
		deg[e.U]++
		deg[e.V]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj = make([]graph.NodeID, offsets[n])
	if weighted {
		weights = make([]float64, offsets[n])
	}
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	place := func(u, v graph.NodeID, w float64) {
		i := cursor[u]
		cursor[u]++
		adj[i] = v
		if weights != nil {
			weights[i] = w
		}
	}
	for _, e := range dedup {
		place(e.U, e.V, e.W)
		place(e.V, e.U, e.W)
	}
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if weights == nil {
			s := adj[lo:hi]
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			continue
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = i
		}
		a, w := adj[lo:hi], weights[lo:hi]
		sort.Slice(idx, func(i, j int) bool { return a[idx[i]] < a[idx[j]] })
		na := make([]graph.NodeID, len(idx))
		nw := make([]float64, len(idx))
		for i, k := range idx {
			na[i], nw[i] = a[k], w[k]
		}
		copy(a, na)
		copy(w, nw)
	}
	return offsets, adj, weights
}

// TestBuildMatchesReflectionSortedReference: the builder's graph is the old
// implementation's array for array — on the Hyperlink stand-in at scale 1
// with its edges shuffled, flipped, repeated under other weights (the
// minimum must be kept) and mixed with self-loops, weighted and not.
func TestBuildMatchesReflectionSortedReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Hyperlink stand-in four times")
	}
	d, _ := gen.DatasetByName("HL")
	hl := gen.DegreeProportionalWeights(d.Build(1, 1))
	n := hl.NumNodes()
	r := rand.New(rand.NewSource(1))
	var edges []graph.WeightedEdge
	hl.ForEachEdge(func(u, v graph.NodeID, w float64) {
		if r.Intn(2) == 0 {
			u, v = v, u
		}
		edges = append(edges, graph.WeightedEdge{U: u, V: v, W: w})
		switch r.Intn(8) {
		case 0: // a parallel edge the other way round, heavier
			edges = append(edges, graph.WeightedEdge{U: v, V: u, W: w + 1})
		case 1: // a lighter one: this weight must win
			edges = append(edges, graph.WeightedEdge{U: u, V: v, W: w / 2})
		case 2: // an exact duplicate
			edges = append(edges, graph.WeightedEdge{U: u, V: v, W: w})
		case 3:
			edges = append(edges, graph.WeightedEdge{U: u, V: u, W: w})
		}
	})
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	for _, weighted := range []bool{false, true} {
		b := graph.NewBuilder(n)
		for _, e := range edges {
			if weighted {
				b.AddWeightedEdge(e.U, e.V, e.W)
			} else {
				b.AddEdge(e.U, e.V)
			}
		}
		g := b.Build()
		offsets, adj, weights := buildRef(n, edges, weighted)
		if g.NumNodes() != n || g.NumDirectedEdges() != offsets[n] || g.NumEdges() != hl.NumEdges() || g.Weighted() != weighted {
			t.Fatalf("weighted=%v: %d vertices, %d directed edges, weighted %v; want %d, %d, %v",
				weighted, g.NumNodes(), g.NumDirectedEdges(), g.Weighted(), n, offsets[n], weighted)
		}
		for v := 0; v < n; v++ {
			nv := graph.NodeID(v)
			lo, hi := offsets[v], offsets[v+1]
			if !slices.Equal(g.Neighbors(nv), adj[lo:hi]) {
				t.Fatalf("weighted=%v: neighbours of %d differ from the reference", weighted, v)
			}
			if weighted && !slices.Equal(g.NeighborWeights(nv), weights[lo:hi]) {
				t.Fatalf("weighted=%v: weights of %d differ from the reference", weighted, v)
			}
		}
	}
}
