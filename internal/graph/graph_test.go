package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	if g.NumNodes() != 4 {
		t.Fatalf("n = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("m = %d, want 4", g.NumEdges())
	}
	for v := 0; v < 4; v++ {
		if g.Degree(NodeID(v)) != 2 {
			t.Errorf("degree(%d) = %d, want 2", v, g.Degree(NodeID(v)))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid graph: %v", err)
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse direction
	b.AddEdge(0, 1) // exact duplicate
	b.AddEdge(2, 2) // self loop
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("m = %d, want 1 after dedup", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self loop survived: degree(2)=%d", g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid graph: %v", err)
	}
}

func TestBuilderWeightedDedupKeepsMin(t *testing.T) {
	b := NewBuilder(2)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(1, 0, 3)
	b.AddWeightedEdge(0, 1, 7)
	g := b.Build()
	w, ok := g.WeightBetween(0, 1)
	if !ok || w != 3 {
		t.Fatalf("weight(0,1) = %v,%v, want 3,true", w, ok)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	b.Build()
}

func TestHasEdgeAndWeightBetween(t *testing.T) {
	g := FromWeightedEdges(5, []WeightedEdge{{0, 1, 2.5}, {1, 2, 1.0}, {3, 4, 9}})
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("edge (0,2) should not exist")
	}
	if g.HasEdge(0, 99) {
		t.Fatal("out-of-range HasEdge should be false")
	}
	if w, ok := g.WeightBetween(4, 3); !ok || w != 9 {
		t.Fatalf("weight(4,3) = %v,%v", w, ok)
	}
	if _, ok := g.WeightBetween(0, 4); ok {
		t.Fatal("weight for missing edge reported present")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []WeightedEdge{{0, 3, 1}, {1, 2, 2}, {2, 3, 3}, {0, 1, 4}}
	g := FromWeightedEdges(4, in)
	out := g.Edges()
	if len(out) != len(in) {
		t.Fatalf("edge count %d, want %d", len(out), len(in))
	}
	seen := map[Edge]float64{}
	for _, e := range out {
		if e.U >= e.V {
			t.Fatalf("edge %v not canonical", e)
		}
		seen[Edge{e.U, e.V}] = e.W
	}
	for _, e := range in {
		c := e.Canonical()
		if seen[Edge{c.U, c.V}] != c.W {
			t.Fatalf("edge %v lost or wrong weight", e)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := FromWeightedEdges(3, []WeightedEdge{{0, 1, 1}, {1, 2, 2}})
	cp := g.Clone()
	cp.weights[0] = 99
	if g.weights[0] == 99 {
		t.Fatal("clone shares weight storage")
	}
}

func TestWithWeightsAndUnweighted(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	wg := g.WithWeights(func(u, v NodeID) float64 { return float64(u) + float64(v) })
	if !wg.Weighted() {
		t.Fatal("WithWeights result not weighted")
	}
	if w, _ := wg.WeightBetween(1, 2); w != 3 {
		t.Fatalf("weight(1,2) = %v, want 3", w)
	}
	if err := wg.Validate(); err != nil {
		t.Fatalf("weighted view invalid: %v", err)
	}
	uw := wg.Unweighted()
	if uw.Weighted() {
		t.Fatal("Unweighted view still weighted")
	}
	if uw.EdgeWeight(0, 0) != 1 {
		t.Fatal("unweighted EdgeWeight should be 1")
	}
}

func TestWithEdgeWeights(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {0, 4}, {1, 2}, {1, 4}, {2, 3}})
	var order []Edge
	wg := g.WithEdgeWeights(func(u, v NodeID) float64 {
		order = append(order, Edge{u, v})
		return float64(len(order))
	})
	if err := wg.Validate(); err != nil {
		t.Fatalf("weights not mirrored: %v", err)
	}
	// One draw per edge, u < v, in ForEachEdge order.
	i := 0
	wg.ForEachEdge(func(u, v NodeID, w float64) {
		if i >= len(order) || order[i] != (Edge{u, v}) || w != float64(i+1) {
			t.Fatalf("edge %d: (%d,%d) w=%v, draws %v", i, u, v, w, order)
		}
		i++
	})
	if i != len(order) {
		t.Fatalf("%d draws for %d edges", len(order), i)
	}
}

func TestMaxDegree(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if g.MaxDegree() != 4 {
		t.Fatalf("max degree %d, want 4", g.MaxDegree())
	}
}

func randomEdgeList(n, m int, rng *rand.Rand) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
	}
	return edges
}

func TestBuilderPropertyValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		m := rng.Intn(4 * n)
		g := FromEdges(n, randomEdgeList(n, m, rng))
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPropertySymmetricDegreesSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := FromEdges(n, randomEdgeList(n, rng.Intn(3*n), rng))
		var sum int64
		for v := 0; v < n; v++ {
			sum += int64(g.Degree(NodeID(v)))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestContractTriangleToPoint(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	mapping := []NodeID{0, 0, 0, 3}
	cg, reps, origToNew := Contract(g, mapping, true)
	if cg.NumNodes() != 2 {
		t.Fatalf("contracted n = %d, want 2", cg.NumNodes())
	}
	if cg.NumEdges() != 1 {
		t.Fatalf("contracted m = %d, want 1", cg.NumEdges())
	}
	if len(reps) != 2 {
		t.Fatalf("reps = %v", reps)
	}
	if origToNew[0] != origToNew[1] || origToNew[1] != origToNew[2] {
		t.Fatalf("vertices 0,1,2 not mapped together: %v", origToNew)
	}
	if origToNew[3] == origToNew[0] {
		t.Fatal("vertex 3 merged incorrectly")
	}
}

func TestContractDropsIsolated(t *testing.T) {
	// Two components; contracting one fully should drop it when requested.
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {3, 4}})
	mapping := []NodeID{0, 0, 0, 3, 3}
	cg, _, origToNew := Contract(g, mapping, true)
	if cg.NumNodes() != 0 {
		t.Fatalf("expected all vertices dropped, n=%d", cg.NumNodes())
	}
	for v, id := range origToNew {
		if id != None {
			t.Fatalf("vertex %d should map to None, got %d", v, id)
		}
	}
	cg2, _, _ := Contract(g, mapping, false)
	if cg2.NumNodes() != 2 {
		t.Fatalf("without dropIsolated expected 2 representatives, got %d", cg2.NumNodes())
	}
}

func TestContractPreservesMinWeight(t *testing.T) {
	g := FromWeightedEdges(4, []WeightedEdge{{0, 1, 5}, {0, 2, 1}, {1, 3, 2}, {2, 3, 7}})
	// Merge {0,1} and {2,3}: parallel edges (0-2 w1, 1-3 w2, 2-3 internal, ...)
	mapping := []NodeID{0, 0, 2, 2}
	cg, reps, _ := Contract(g, mapping, true)
	if cg.NumNodes() != 2 || cg.NumEdges() != 1 {
		t.Fatalf("contracted shape n=%d m=%d", cg.NumNodes(), cg.NumEdges())
	}
	_ = reps
	w, ok := cg.WeightBetween(0, 1)
	if !ok || w != 1 {
		t.Fatalf("contracted weight = %v, want 1 (minimum of parallels)", w)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	keep := []bool{true, true, true, false, false, false}
	sub, orig := InducedSubgraph(g, keep)
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("subgraph n=%d m=%d, want 3,2", sub.NumNodes(), sub.NumEdges())
	}
	if len(orig) != 3 || orig[0] != 0 || orig[1] != 1 || orig[2] != 2 {
		t.Fatalf("orig mapping %v", orig)
	}
}

func TestRemoveVertices(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	sub, orig := RemoveVertices(g, []NodeID{1})
	if sub.NumNodes() != 3 || sub.NumEdges() != 1 {
		t.Fatalf("after removal n=%d m=%d, want 3,1", sub.NumNodes(), sub.NumEdges())
	}
	if len(orig) != 3 {
		t.Fatalf("orig %v", orig)
	}
}

func TestLineGraphTriangle(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}, {0, 2}})
	lg, edges := LineGraph(g)
	if lg.NumNodes() != 3 {
		t.Fatalf("line graph n = %d, want 3", lg.NumNodes())
	}
	// Line graph of a triangle is a triangle.
	if lg.NumEdges() != 3 {
		t.Fatalf("line graph m = %d, want 3", lg.NumEdges())
	}
	if len(edges) != 3 {
		t.Fatalf("edge index %v", edges)
	}
}

func TestLineGraphStar(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	lg, _ := LineGraph(g)
	// Line graph of a star K_{1,3} is a triangle.
	if lg.NumNodes() != 3 || lg.NumEdges() != 3 {
		t.Fatalf("line graph of star: n=%d m=%d", lg.NumNodes(), lg.NumEdges())
	}
}

func TestComponentsAndStats(t *testing.T) {
	g := FromEdges(7, []Edge{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 3}})
	comp := Components(g)
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("0,1,2 should share a component")
	}
	if comp[3] != comp[4] || comp[4] != comp[5] {
		t.Fatal("3,4,5 should share a component")
	}
	if comp[0] == comp[3] || comp[6] == comp[0] || comp[6] == comp[3] {
		t.Fatal("components incorrectly merged")
	}
	s := ComputeStats(g)
	if s.NumComponents != 3 {
		t.Fatalf("components = %d, want 3", s.NumComponents)
	}
	if s.LargestComponent != 3 {
		t.Fatalf("largest = %d, want 3", s.LargestComponent)
	}
	if s.Nodes != 7 || s.Edges != 5 {
		t.Fatalf("stats %v", s)
	}
}

func TestStatsDiameterPath(t *testing.T) {
	// Path on 10 vertices: diameter 9, double-sweep BFS is exact on trees.
	edges := make([]Edge, 9)
	for i := 0; i < 9; i++ {
		edges[i] = Edge{NodeID(i), NodeID(i + 1)}
	}
	s := ComputeStats(FromEdges(10, edges))
	if s.ApproxDiameter != 9 {
		t.Fatalf("diameter = %d, want 9", s.ApproxDiameter)
	}
}

func TestSameComponents(t *testing.T) {
	a := []NodeID{0, 0, 2, 2}
	b := []NodeID{7, 7, 9, 9}
	c := []NodeID{7, 7, 7, 9}
	if !SameComponents(a, b) {
		t.Fatal("a and b are the same partition")
	}
	if SameComponents(a, c) {
		t.Fatal("a and c differ")
	}
	if SameComponents(a, []NodeID{0}) {
		t.Fatal("length mismatch should differ")
	}
}

func TestDegreeHistogramSorted(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}})
	h := DegreeHistogram(g)
	if len(h) != 5 {
		t.Fatalf("histogram length %d", len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i-1] > h[i] {
			t.Fatal("histogram not sorted")
		}
	}
	if h[len(h)-1] != 4 {
		t.Fatalf("max degree in histogram %d, want 4", h[len(h)-1])
	}
}

func TestContractPropertyComponentsPreserved(t *testing.T) {
	// Contracting along any mapping that only merges vertices within the same
	// component must not change the number of connected components (counting
	// only components that still contain an edge).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		g := FromEdges(n, randomEdgeList(n, n+rng.Intn(2*n), rng))
		comp := Components(g)
		// Merge each vertex to its component representative.
		cg, _, _ := Contract(g, comp, false)
		// Contracted graph has no edges at all (every edge is internal).
		return cg.NumEdges() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
