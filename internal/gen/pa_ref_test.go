package gen

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ampcgraph/internal/graph"
)

// paRef is PreferentialAttachment as it was before it wrote into a caller's
// builder: a map per vertex to collect k distinct targets, then sort.Slice
// to order them.
func paRef(n, k int, seed int64) *graph.Graph {
	if n < k+1 {
		panic("gen: preferential attachment needs n > k")
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	endpoints := make([]graph.NodeID, 0, 2*n*k)
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			endpoints = append(endpoints, graph.NodeID(i), graph.NodeID(j))
		}
	}
	for v := k + 1; v < n; v++ {
		chosen := map[graph.NodeID]bool{}
		for len(chosen) < k {
			t := endpoints[rng.Intn(len(endpoints))]
			if int(t) == v {
				continue
			}
			chosen[t] = true
		}
		targets := make([]graph.NodeID, 0, len(chosen))
		for t := range chosen {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		for _, t := range targets {
			b.AddEdge(graph.NodeID(v), t)
			endpoints = append(endpoints, graph.NodeID(v), t)
		}
	}
	return b.Build()
}

// sameGraph fails t unless a and b have the same vertices and neighbour
// lists.
func sameGraph(t *testing.T, what string, a, b *graph.Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: n=%d m=%d, want n=%d m=%d", what, a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		if !slices.Equal(a.Neighbors(graph.NodeID(v)), b.Neighbors(graph.NodeID(v))) {
			t.Fatalf("%s: neighbours of %d differ from the reference", what, v)
		}
	}
}

// TestPreferentialAttachmentMatchesMapReference: the k-slot generator draws
// the same graph as the map-and-sort.Slice one, down to k = 1 and n = k+1,
// and at the stand-ins' own (n, k).
func TestPreferentialAttachmentMatchesMapReference(t *testing.T) {
	cases := []struct{ n, k int }{
		{2, 1}, {3, 2}, {25, 24}, {50, 1}, {200, 2}, {1_000, 3}, {3_000, 24}, {6_000, 28}, {40, 39},
	}
	for _, c := range cases {
		for _, seed := range []int64{1, 7, 1004} {
			sameGraph(t, "PA", PreferentialAttachment(c.n, c.k, seed), paRef(c.n, c.k, seed))
		}
	}
	// Into a shared builder at an offset, as the web stand-ins emit islands.
	b := graph.NewBuilder(30)
	preferentialAttachment(b, 10, 20, 2, 5)
	g, ref := b.Build(), paRef(20, 2, 5)
	for v := 0; v < 10; v++ {
		if g.Degree(graph.NodeID(v)) != 0 {
			t.Fatalf("vertex %d below the offset has degree %d", v, g.Degree(graph.NodeID(v)))
		}
	}
	for v := 0; v < 20; v++ {
		got := g.Neighbors(graph.NodeID(10 + v))
		want := ref.Neighbors(graph.NodeID(v))
		if len(got) != len(want) {
			t.Fatalf("offset vertex %d: degree %d, want %d", v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i]+10 {
				t.Fatalf("offset vertex %d: neighbours %v, want %v shifted by 10", v, got, want)
			}
		}
	}
}
