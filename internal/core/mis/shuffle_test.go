package mis

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/core/rankadj"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
)

// directGraphRef is the sequential DirectGraph the pool-run stage replaced,
// kept as its reference: one goroutine, a fresh slice per vertex, the rank
// order evaluated inside the comparator.
func directGraphRef(g *graph.Graph, prio []uint64) [][]graph.NodeID {
	less := func(a, b graph.NodeID) bool {
		if prio[a] != prio[b] {
			return prio[a] < prio[b]
		}
		return a < b
	}
	directed := make([][]graph.NodeID, g.NumNodes())
	for v := range directed {
		nv := graph.NodeID(v)
		var earlier []graph.NodeID
		for _, u := range g.Neighbors(nv) {
			if less(u, nv) {
				earlier = append(earlier, u)
			}
		}
		sort.Slice(earlier, func(i, j int) bool { return less(earlier[i], earlier[j]) })
		directed[v] = earlier
	}
	return directed
}

// directGraph runs the DirectGraph stage alone, as the process's substrate
// does.
func directGraph(rt *ampc.Job, g *graph.Graph, prio []uint64) ([]codec.NodeList, error) {
	p := process(prio)
	return rankadj.Lists(rt, p.Shuffle, g, p.Keep, p.Key)
}

// withIsolated returns g plus extra vertices of degree 0.
func withIsolated(g *graph.Graph, extra int) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes() + extra)
	g.ForEachEdge(func(u, v graph.NodeID, _ float64) { b.AddEdge(u, v) })
	return b.Build()
}

// TestDirectGraphMatchesSequentialReference: on every pool shape the stage's
// lists equal the sequential reference's element for element — on a hub
// graph spanning several chunks and on one with isolated vertices — their
// encodings are what the KV-write used to encode per vertex, a second run on
// the same job yields them again, and the stage is one DirectGraph phase
// with one shuffle of the lists' encoded size, no round.
func TestDirectGraphMatchesSequentialReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		graphs := map[string]*graph.Graph{
			"hubs":     gen.PreferentialAttachment(1700, 4, seed),
			"isolated": withIsolated(gen.ErdosRenyi(600, 900, seed), 40),
		}
		for name, g := range graphs {
			n := g.NumNodes()
			prio := rng.VertexPriorities(seed, n)
			want := directGraphRef(g, prio)
			var wantBytes int64
			for _, l := range want {
				wantBytes += int64(codec.SizeOfNodeList(len(l)))
			}
			for _, pool := range [][2]int{{1, 1}, {2, 1}, {3, 4}} {
				t.Run(fmt.Sprintf("%s/seed%d/%dx%d", name, seed, pool[0], pool[1]), func(t *testing.T) {
					rt := ampc.New(ampc.Config{Machines: pool[0], Threads: pool[1], Seed: seed})
					defer rt.Close()
					for pass := 1; pass <= 2; pass++ {
						got, err := directGraph(rt, g, prio)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != n {
							t.Fatalf("%d lists, want %d", len(got), n)
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
						if st.Rounds != 0 || st.Shuffles != pass || ph.Name != "DirectGraph" || ph.ShuffleBytes != wantBytes {
							t.Fatalf("pass %d: rounds %d shuffles %d phase %+v, want 0 / %d / DirectGraph with %d bytes",
								pass, st.Rounds, st.Shuffles, ph, pass, wantBytes)
						}
					}
				})
			}
		}
	}
}

// TestRootVertexPaysOneLookup pins the empty-means-fetch convention of
// searcher.inMIS under the plain driver: a vertex with no earlier neighbour
// (an isolated vertex, or the first vertex of its neighbourhood in rank
// order) holds an empty list, which the search cannot tell from "not held",
// so it fetches its own 4-byte encoding from the store — one lookup.  With no
// cache of any kind every other vertex of a clique then fetches the root's
// list once more and stops.  These reads are part of the recorded KV traffic
// and modeled time of the algorithm; a change that removes them must say so.
func TestRootVertexPaysOneLookup(t *testing.T) {
	clique := gen.Clique(5)
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		reads int64
	}{
		{"isolated vertices", graph.FromEdges(6, nil), 6},
		{"one edge and three isolated vertices", graph.FromEdges(5, []graph.Edge{{U: 1, V: 3}}), 2 + 3},
		{"clique", clique, 5},
		{"clique and two isolated vertices", withIsolated(clique, 2), 5 + 2},
	} {
		for _, seed := range []int64{1, 2, 3} {
			res, err := Run(tc.g, ampc.Config{Machines: 1, Threads: 1, Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			// Every list read is a root's: the 8-byte key and the four
			// header bytes of a list with no entries.
			if st := res.Stats; st.KVReads != tc.reads || st.KVBytesRead != 12*tc.reads {
				t.Errorf("%s, seed %d: %d store reads of %d bytes, want %d of %d",
					tc.name, seed, st.KVReads, st.KVBytesRead, tc.reads, 12*tc.reads)
			}
		}
	}
}
