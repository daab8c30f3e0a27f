package msf

import (
	"sync"
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
	"ampcgraph/internal/seq"
)

// benchHubGraph is the Hyperlink2012 stand-in the wall-clock benchmark's
// contract_mem workload runs msf on: ~26k vertices, ~565k edges, hubs of
// several thousand neighbours.
func benchHubGraph() *graph.Graph {
	d, _ := gen.DatasetByName("HL")
	return gen.DegreeProportionalWeights(d.Build(1, 1))
}

var benchLists []codec.WeightedList

// BenchmarkSortGraph measures the SortGraph stage alone: sorting every
// adjacency list and encoding it into the chunks' arenas, on the wall-clock
// benchmark's pool: two machines of one thread.
func BenchmarkSortGraph(b *testing.B) {
	g := benchHubGraph()
	rt := ampc.New(ampc.Config{Machines: 2, Threads: 1, Seed: 1})
	defer rt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchLists, err = sortGraph(rt, g, ""); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
}

var benchForest []graph.WeightedEdge

// BenchmarkFinishMSF measures the contraction tail alone — Contract, then
// FinishMSF — on the hub graph with fixed roots: clusters of 200 consecutive
// vertices, 130 of them, about the 128 PointerJump leaves on HL, so nearly
// every edge survives and a few accepts connect everything.  A full sort of
// the survivors shows as ns/edge; allocs/op is the handful of exactly sized
// slices.
func BenchmarkFinishMSF(b *testing.B) {
	g := benchHubGraph()
	roots := make([]graph.NodeID, g.NumNodes())
	for v := range roots {
		roots[v] = graph.NodeID(v - v%200)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cross, clusters := contract(g, roots)
		benchForest = filterKruskal(cross, seq.NewDSU(clusters), benchForest[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
}

// BenchmarkPrimSearch measures one full PrimSearch round (a truncated search
// from every vertex of the hub graph) against a store already holding the
// sorted lists, through the single-key and the batched driver.  B/op is the
// number to watch: the searches cross hubs, and must not copy their lists.
func BenchmarkPrimSearch(b *testing.B) {
	g := benchHubGraph()
	n := g.NumNodes()
	for _, batch := range []bool{false, true} {
		name := "single-key"
		if batch {
			name = "batched"
		}
		b.Run(name, func(b *testing.B) {
			cfg := ampc.Config{Machines: 2, Threads: 1, EnableCache: true, Seed: 1, Batch: batch}
			rt := ampc.New(cfg)
			defer rt.Close()
			rt.SetOwnership(graph.DegreeWeights(g))
			sorted, err := sortGraph(rt, g, "")
			if err != nil {
				b.Fatal(err)
			}
			store, err := rt.OpenStore("weight-sorted-graph")
			if err != nil {
				b.Fatal(err)
			}
			err = rt.WriteTable("kv-write", store, n, 1, func(item int) []byte { return sorted[item].Encoded() })
			if err != nil {
				b.Fatal(err)
			}
			prio := rng.VertexPriorities(cfg.Seed, n)
			budget := rt.Config().SpaceBudget(n)
			var mu sync.Mutex
			edges := 0
			commit := func(_ graph.NodeID, out *primOutcome) { edges += len(out.msfEdges) }
			round := primRound(rt, "prim-search", store, sorted, prio, budget, &mu, commit)
			if batch {
				round = batchPrimRound(rt, "prim-search", store, sorted, prio, budget, &mu, commit)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Run(round); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if edges == 0 {
				b.Fatal("searches found no edges")
			}
		})
	}
}
