package matching

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/core/rankadj"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
)

// permuteGraphRef is the sequential PermuteGraph the pool-run stage
// replaced, kept as its reference: one goroutine, a copy of the adjacency per
// vertex, rank evaluated inside the comparator.
func permuteGraphRef(g *graph.Graph, rank RankFunc) [][]graph.NodeID {
	sorted := make([][]graph.NodeID, g.NumNodes())
	for v := range sorted {
		nv := graph.NodeID(v)
		nbrs := append([]graph.NodeID(nil), g.Neighbors(nv)...)
		sort.Slice(nbrs, func(i, j int) bool {
			ri, rj := rank(nv, nbrs[i]), rank(nv, nbrs[j])
			if ri != rj {
				return ri < rj
			}
			return nbrs[i] < nbrs[j]
		})
		sorted[v] = nbrs
	}
	return sorted
}

// permuteGraph runs the PermuteGraph stage alone, as the process's substrate
// does.
func permuteGraph(rt *ampc.Job, g *graph.Graph, rank RankFunc, tag string) ([]codec.NodeList, error) {
	p := process(rank)
	return rankadj.Lists(rt, p.Shuffle+tag, g, p.Keep, p.Key)
}

// withIsolated returns g plus extra vertices of degree 0, keeping weights.
func withIsolated(g *graph.Graph, extra int) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes() + extra)
	g.ForEachEdge(func(u, v graph.NodeID, w float64) {
		if g.Weighted() {
			b.AddWeightedEdge(u, v, w)
		} else {
			b.AddEdge(u, v)
		}
	})
	return b.Build()
}

// TestPermuteGraphMatchesSequentialReference: on every pool shape the
// stage's lists equal the sequential reference's element for element — on a
// hub graph spanning several chunks, with isolated vertices, and under
// WeightEdgeRank with three distinct weights, where the hash in the key's low
// bits orders almost every pair — under a non-empty tag; a second run on the
// same job yields them again; and the stage is one PermuteGraph+tag phase
// with one shuffle of the lists' encoded size, no round.
func TestPermuteGraphMatchesSequentialReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		tied := gen.PreferentialAttachment(1300, 5, seed).WithEdgeWeights(
			func(_, _ graph.NodeID) float64 { return float64(1 + r.Intn(3)) })
		hubs := gen.PreferentialAttachment(1700, 4, seed)
		isolated := withIsolated(gen.ErdosRenyi(600, 900, seed), 40)
		for _, tc := range []struct {
			name string
			g    *graph.Graph
			rank RankFunc
		}{
			{"hubs", hubs, UniformEdgeRank(seed)},
			{"isolated", isolated, UniformEdgeRank(seed)},
			{"tied-weights", tied, WeightEdgeRank(tied, seed)},
		} {
			want := permuteGraphRef(tc.g, tc.rank)
			var wantBytes int64
			for _, l := range want {
				wantBytes += int64(codec.SizeOfNodeList(len(l)))
			}
			for _, pool := range [][2]int{{1, 1}, {2, 1}, {3, 4}} {
				t.Run(fmt.Sprintf("%s/seed%d/%dx%d", tc.name, seed, pool[0], pool[1]), func(t *testing.T) {
					rt := ampc.New(ampc.Config{Machines: pool[0], Threads: pool[1], Seed: seed})
					defer rt.Close()
					for pass := 1; pass <= 2; pass++ {
						got, err := permuteGraph(rt, tc.g, tc.rank, "-iter7")
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("%d lists, want %d", len(got), len(want))
						}
						for v := range want {
							if !slices.Equal(got[v].Encoded(), codec.EncodeNodeIDs(want[v])) {
								t.Fatalf("pass %d: list %d differs from the sequential reference %v", pass, v, want[v])
							}
							for i, u := range want[v] {
								if got[v].At(i) != u {
									t.Fatalf("pass %d: list %d entry %d is %d, want %d", pass, v, i, got[v].At(i), u)
								}
							}
						}
						st := rt.Stats()
						ph := st.Phases[len(st.Phases)-1]
						if st.Rounds != 0 || st.Shuffles != pass || ph.Name != "PermuteGraph-iter7" || ph.ShuffleBytes != wantBytes {
							t.Fatalf("pass %d: rounds %d shuffles %d phase %+v, want 0 / %d / PermuteGraph-iter7 with %d bytes",
								pass, st.Rounds, st.Shuffles, ph, pass, wantBytes)
						}
					}
				})
			}
		}
	}
}

// TestIsolatedVertexPaysOneLookup pins the empty-means-fetch convention of
// searcher.vertexProcess under the plain driver: a vertex of degree 0 holds
// an empty list, which the search cannot tell from "not held", so it fetches
// its own 4-byte encoding from the store — one lookup — before finding it has
// no edge to try.  (An endpoint of the lone edge fetches both endpoints'
// one-entry lists for the merge: two lookups each, with no cache.)  These
// reads are part of the recorded KV traffic and modeled time of the
// algorithm; a change that removes them must say so.
func TestIsolatedVertexPaysOneLookup(t *testing.T) {
	for _, tc := range []struct {
		name         string
		g            *graph.Graph
		reads, bytes int64
	}{
		{"isolated vertices", graph.FromEdges(6, nil), 6, 6 * (8 + 4)},
		{"one edge and three isolated vertices", graph.FromEdges(5, []graph.Edge{{U: 1, V: 3}}), 4 + 3, 4*(8+8) + 3*(8+4)},
	} {
		for _, seed := range []int64{1, 2, 3} {
			res, err := Run(tc.g, ampc.Config{Machines: 1, Threads: 1, Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if st := res.Stats; st.KVReads != tc.reads || st.KVBytesRead != tc.bytes {
				t.Errorf("%s, seed %d: %d store reads of %d bytes, want %d of %d",
					tc.name, seed, st.KVReads, st.KVBytesRead, tc.reads, tc.bytes)
			}
		}
	}
}
