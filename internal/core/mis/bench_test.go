package mis

import (
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/rng"
)

var benchLists int

// BenchmarkDirectGraph measures the DirectGraph stage alone on the
// Hyperlink2012 stand-in the wall-clock benchmark runs MIS on (~26k
// vertices, ~565k edges), on that benchmark's pool: two machines of one
// thread.
func BenchmarkDirectGraph(b *testing.B) {
	d, _ := gen.DatasetByName("HL")
	g := d.Build(1, 1)
	rt := ampc.New(ampc.Config{Machines: 2, Threads: 1, Seed: 1})
	defer rt.Close()
	prio := rng.VertexPriorities(1, g.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lists, err := directGraph(rt, g, prio)
		if err != nil {
			b.Fatal(err)
		}
		benchLists = len(lists)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
}
