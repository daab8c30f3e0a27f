package graph_test

import (
	"math"
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

// fuzzWeights are the weights FuzzBuild draws from: ±Inf, −0 beside +0, and
// repeats, so a run of parallel edges often ties on its minimum.
var fuzzWeights = []float64{math.Inf(-1), -2.5, -1, math.Copysign(0, -1), 0, 0.5, 1, 1, 3, math.MaxFloat64, math.Inf(1)}

// FuzzBuild: on arbitrary edge lists — self-loops, parallel edges in both
// directions, any order — the counting-sort builder produces the reference's
// CSR arrays, with weights compared by == (so a run whose minimum ties −0
// with +0 may keep either).  Each edge is three bytes: its endpoints mod n
// and an index into fuzzWeights.
func FuzzBuild(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 0, 1, 0, 3, 2, 2, 5, 3, 1, 4}, true)
	f.Add(uint8(3), []byte{0, 1, 3, 0, 1, 4, 1, 0, 3, 2, 1, 0, 1, 2, 10}, true)
	f.Add(uint8(1), []byte{0, 0, 0}, false)
	f.Add(uint8(40), []byte{7, 3, 1, 3, 7, 2, 39, 0, 9, 0, 39, 8, 12, 12, 0}, false)
	f.Fuzz(func(t *testing.T, n8 uint8, data []byte, weighted bool) {
		n := int(n8)%64 + 1
		var edges []graph.WeightedEdge
		b := graph.NewBuilder(n)
		for ; len(data) >= 3; data = data[3:] {
			u, v := graph.NodeID(int(data[0])%n), graph.NodeID(int(data[1])%n)
			w := fuzzWeights[int(data[2])%len(fuzzWeights)]
			if !weighted {
				w = 1
			}
			edges = append(edges, graph.WeightedEdge{U: u, V: v, W: w})
			if weighted {
				b.AddWeightedEdge(u, v, w)
			} else {
				b.AddEdge(u, v)
			}
		}
		weighted = weighted && len(edges) > 0
		g := b.Build()
		offsets, adj, weights := buildRef(n, edges, weighted)
		if g.NumNodes() != n || g.NumDirectedEdges() != offsets[n] || g.Weighted() != weighted {
			t.Fatalf("%d vertices, %d directed edges, weighted %v; want %d, %d, %v",
				g.NumNodes(), g.NumDirectedEdges(), g.Weighted(), n, offsets[n], weighted)
		}
		for v := 0; v < n; v++ {
			lo, hi := offsets[v], offsets[v+1]
			if !slices.Equal(g.Neighbors(graph.NodeID(v)), adj[lo:hi]) {
				t.Fatalf("neighbours of %d: %v, want %v", v, g.Neighbors(graph.NodeID(v)), adj[lo:hi])
			}
			if weighted && !slices.Equal(g.NeighborWeights(graph.NodeID(v)), weights[lo:hi]) {
				t.Fatalf("weights of %d: %v, want %v", v, g.NeighborWeights(graph.NodeID(v)), weights[lo:hi])
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// buildSink keeps BenchmarkBuild's graphs live.
var buildSink *graph.Graph

// BenchmarkBuild builds the Hyperlink stand-in at scale 1 from its edge
// list, shuffled and flipped at random, unweighted and with its
// degree-proportional weights; ns/edge is per input edge.
func BenchmarkBuild(b *testing.B) {
	d, _ := gen.DatasetByName("HL")
	hl := gen.DegreeProportionalWeights(d.Build(1, 1))
	r := rand.New(rand.NewSource(1))
	edges := hl.Edges()
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i := range edges {
		if r.Intn(2) == 0 {
			edges[i].U, edges[i].V = edges[i].V, edges[i].U
		}
	}
	for _, weighted := range []bool{false, true} {
		name := "unweighted"
		if weighted {
			name = "weighted"
		}
		bld := graph.NewBuilder(hl.NumNodes())
		bld.Grow(len(edges))
		for _, e := range edges {
			if weighted {
				bld.AddWeightedEdge(e.U, e.V, e.W)
			} else {
				bld.AddEdge(e.U, e.V)
			}
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildSink = bld.Build()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(edges)), "ns/edge")
		})
	}
}
