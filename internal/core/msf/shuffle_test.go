package msf

import (
	"fmt"
	"slices"
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
)

// sortGraphRef is the sequential SortGraph the pool-run stage replaced, kept
// as its reference: one goroutine, one scratch slice, one exact-size arena.
func sortGraphRef(g *graph.Graph) []codec.WeightedList {
	n := g.NumNodes()
	size := 0
	for v := 0; v < n; v++ {
		size += codec.SizeOfWeightedList(g.Degree(graph.NodeID(v)))
	}
	arena := make([]byte, 0, size)
	lists := make([]codec.WeightedList, n)
	scratch := make([]codec.WeightedNeighbor, 0, g.MaxDegree())
	for v := 0; v < n; v++ {
		nv := graph.NodeID(v)
		scratch = scratch[:0]
		for i, u := range g.Neighbors(nv) {
			scratch = append(scratch, codec.WeightedNeighbor{Node: u, Weight: g.EdgeWeight(nv, i)})
		}
		slices.SortFunc(scratch, neighborCmp)
		arena, lists[v] = codec.AppendWeightedList(arena, scratch)
	}
	return lists
}

// sortedLists runs the SortGraph stage on a two-machine pool.
func sortedLists(t *testing.T, g *graph.Graph) []codec.WeightedList {
	t.Helper()
	rt := ampc.New(ampc.Config{Machines: 2, Threads: 1})
	defer rt.Close()
	lists, err := sortGraph(rt, g, "")
	if err != nil {
		t.Fatal(err)
	}
	return lists
}

// withIsolated returns g plus extra vertices of degree 0.
func withIsolated(g *graph.Graph, extra int) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes() + extra)
	g.ForEachEdge(func(u, v graph.NodeID, w float64) { b.AddWeightedEdge(u, v, w) })
	return b.Build()
}

// TestSortGraphMatchesSequentialReference: on every pool shape the stage's
// lists are, byte for byte, the sequential reference's — on a hub graph
// spanning several chunks, with isolated vertices, with many equal weights
// (neighbour id breaks the tie) and under a tag — and a second run on the
// same job yields them again; the stage is one phase and one shuffle of the
// lists' encoded size, no round.
func TestSortGraphMatchesSequentialReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		graphs := map[string]*graph.Graph{
			"hubs":     gen.RandomWeights(gen.PreferentialAttachment(1700, 4, seed), seed),
			"isolated": withIsolated(gen.RandomWeights(gen.ErdosRenyi(600, 900, seed), seed), 40),
			"ties":     tiedWeights(gen.PreferentialAttachment(1300, 5, seed), 3, seed),
		}
		for name, g := range graphs {
			want := sortGraphRef(g)
			var wantBytes int64
			for _, l := range want {
				wantBytes += int64(len(l.Encoded()))
			}
			for _, pool := range [][2]int{{1, 1}, {2, 1}, {3, 4}} {
				t.Run(fmt.Sprintf("%s/seed%d/%dx%d", name, seed, pool[0], pool[1]), func(t *testing.T) {
					rt := ampc.New(ampc.Config{Machines: pool[0], Threads: pool[1], Seed: seed})
					defer rt.Close()
					for pass := 1; pass <= 2; pass++ {
						got, err := sortGraph(rt, g, "-tag")
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("%d lists, want %d", len(got), len(want))
						}
						for v := range want {
							if !slices.Equal(got[v].Encoded(), want[v].Encoded()) {
								t.Fatalf("pass %d: list %d differs from the sequential reference", pass, v)
							}
						}
						st := rt.Stats()
						ph := st.Phases[len(st.Phases)-1]
						if st.Rounds != 0 || st.Shuffles != pass || ph.Name != "SortGraph-tag" || ph.ShuffleBytes != wantBytes {
							t.Fatalf("pass %d: rounds %d shuffles %d phase %+v, want 0 / %d / SortGraph-tag with %d bytes",
								pass, st.Rounds, st.Shuffles, ph, pass, wantBytes)
						}
					}
				})
			}
		}
	}
}
