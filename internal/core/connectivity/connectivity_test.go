package connectivity

import (
	"testing"
	"testing/quick"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/seq"
)

func defaultCfg(seed int64) ampc.Config {
	return ampc.Config{Machines: 4, Threads: 2, EnableCache: true, Seed: seed}
}

func TestConnectivityMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		n := 20 + int(uint64(seed)%200)
		g := gen.ErdosRenyi(n, 2*n, seed)
		res, err := Run(g, defaultCfg(seed))
		if err != nil {
			return false
		}
		return graph.SameComponents(res.Components, graph.Components(g)) &&
			res.NumComponents == graph.ComputeStats(g).NumComponents
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectivityOnGraphClasses(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"two-cycles": gen.TwoCycles(60),
		"grid":       gen.Grid(9, 9),
		"powerlaw":   gen.PreferentialAttachment(400, 3, 3),
		"star":       gen.Star(50),
		"isolated":   graph.FromEdges(12, []graph.Edge{{U: 0, V: 1}}),
	}
	for name, g := range graphs {
		res, err := Run(g, defaultCfg(5))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !graph.SameComponents(res.Components, graph.Components(g)) {
			t.Errorf("%s: wrong component labeling", name)
		}
	}
}

// TestConnectivityLabelsAreCanonical: Components[v] is the minimum vertex id
// of v's component, and NumComponents counts the distinct labels — on
// graphs with several components, including ones whose vertex ids interleave
// and isolated vertices.
func TestConnectivityLabelsAreCanonical(t *testing.T) {
	// Vertex v is joined to v+3: three interleaved paths {0,3,6,..},
	// {1,4,7,..}, {2,5,8,..}, then vertices 60..63 isolated.
	var strided []graph.Edge
	for v := 0; v+3 < 60; v++ {
		strided = append(strided, graph.Edge{U: graph.NodeID(v), V: graph.NodeID(v + 3)})
	}
	graphs := map[string]*graph.Graph{
		"two-cycles":  gen.TwoCycles(30),
		"interleaved": graph.FromEdges(64, strided),
		"forest-like": gen.ErdosRenyi(300, 150, 3),
	}
	for name, g := range graphs {
		res, err := Run(g, defaultCfg(7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Minimum id per component, from an independent BFS labeling.
		bfs := graph.Components(g)
		min := map[graph.NodeID]graph.NodeID{}
		for v := g.NumNodes() - 1; v >= 0; v-- {
			min[bfs[v]] = graph.NodeID(v)
		}
		for v := range bfs {
			if want := min[bfs[v]]; res.Components[v] != want {
				t.Fatalf("%s: label of %d = %d, want %d", name, v, res.Components[v], want)
			}
		}
		if res.NumComponents != len(min) {
			t.Fatalf("%s: NumComponents = %d, want %d", name, res.NumComponents, len(min))
		}
	}
}

func TestConnectivityWeightedInputReused(t *testing.T) {
	// A weighted graph keeps its weights (no random reweighting) and still
	// produces correct components.
	g := gen.DegreeProportionalWeights(gen.PreferentialAttachment(200, 3, 9))
	res, err := Run(g, defaultCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents != 1 {
		t.Fatalf("components = %d, want 1", res.NumComponents)
	}
	if len(res.SpanningForest) != g.NumNodes()-1 {
		t.Fatalf("spanning forest has %d edges, want %d", len(res.SpanningForest), g.NumNodes()-1)
	}
}

func TestConnectivitySpanningForestValid(t *testing.T) {
	g := gen.ErdosRenyi(300, 600, 11)
	res, err := Run(g, defaultCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	// The forest edges must be edges of g and acyclic.
	ds := seq.NewDSU(g.NumNodes())
	for _, e := range res.SpanningForest {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("forest edge %v not in graph", e)
		}
		if !ds.Union(e.U, e.V) {
			t.Fatalf("forest contains a cycle at %v", e)
		}
	}
}

func TestConnectivityStatsPopulated(t *testing.T) {
	g := gen.PreferentialAttachment(300, 3, 13)
	res, err := Run(g, defaultCfg(13))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shuffles == 0 || res.Stats.Rounds == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.KVBytesTotal == 0 {
		t.Fatal("no key-value traffic recorded")
	}
}
