package matching

import (
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/gen"
)

var benchLists int

// BenchmarkPermuteGraph measures the PermuteGraph stage alone on the
// Hyperlink2012 stand-in the wall-clock benchmark runs maximal matching on
// (~26k vertices, ~565k edges), under the uniform edge ranking, on that
// benchmark's pool: two machines of one thread.
func BenchmarkPermuteGraph(b *testing.B) {
	d, _ := gen.DatasetByName("HL")
	g := d.Build(1, 1)
	rt := ampc.New(ampc.Config{Machines: 2, Threads: 1, Seed: 1})
	defer rt.Close()
	rank := UniformEdgeRank(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lists, err := permuteGraph(rt, g, rank, "")
		if err != nil {
			b.Fatal(err)
		}
		benchLists = len(lists)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
}
