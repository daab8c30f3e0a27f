package mis

import (
	"runtime"
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

// BenchmarkSearchStages measures the two IsInMIS search stages alone — one
// serving query against the resident substrate — on the same stand-in and
// pool, single-key and batched.  allocs/vertex guards the driver's round
// bodies (rankadj): they allocate per search round and per block, never per
// vertex — one object per vertex here moves the wall-clock benchmark's
// allocs_per_edge by its whole bound.
func BenchmarkSearchStages(b *testing.B) {
	d, _ := gen.DatasetByName("HL")
	g := d.Build(1, 1)
	for _, batch := range []bool{false, true} {
		name := "plain"
		if batch {
			name = "batch"
		}
		b.Run(name, func(b *testing.B) {
			s := ampc.NewSession(ampc.Config{Machines: 2, Threads: 1, EnableCache: true, Seed: 1, Batch: batch})
			defer s.Close()
			prep, err := s.NewJob()
			if err != nil {
				b.Fatal(err)
			}
			sh, err := NewShared(prep, g)
			prep.Close()
			if err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt, err := s.NewJob()
				if err != nil {
					b.Fatal(err)
				}
				_, err = sh.Run(rt)
				rt.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(g.NumNodes()), "allocs/vertex")
		})
	}
}
