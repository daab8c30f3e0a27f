package gen

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ampcgraph/internal/graph"
)

func TestCycle(t *testing.T) {
	g := Cycle(10)
	if g.NumNodes() != 10 || g.NumEdges() != 10 {
		t.Fatalf("cycle shape n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	for v := 0; v < 10; v++ {
		if g.Degree(graph.NodeID(v)) != 2 {
			t.Fatalf("cycle degree(%d)=%d", v, g.Degree(graph.NodeID(v)))
		}
	}
	s := graph.ComputeStats(g)
	if s.NumComponents != 1 {
		t.Fatalf("cycle components=%d", s.NumComponents)
	}
}

func TestCycleTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Cycle(2)
}

func TestTwoCycles(t *testing.T) {
	g := TwoCycles(50)
	if g.NumNodes() != 100 || g.NumEdges() != 100 {
		t.Fatalf("two-cycles shape n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	s := graph.ComputeStats(g)
	if s.NumComponents != 2 {
		t.Fatalf("two-cycles components=%d, want 2", s.NumComponents)
	}
	if s.LargestComponent != 50 {
		t.Fatalf("largest component %d, want 50", s.LargestComponent)
	}
}

func TestOneOrTwoCycles(t *testing.T) {
	for _, single := range []bool{true, false} {
		g := OneOrTwoCycles(40, single, 7)
		s := graph.ComputeStats(g)
		want := 2
		if single {
			want = 1
		}
		if s.NumComponents != want {
			t.Fatalf("single=%v components=%d want=%d", single, s.NumComponents, want)
		}
		if g.NumNodes() != 80 {
			t.Fatalf("n=%d", g.NumNodes())
		}
		for v := 0; v < g.NumNodes(); v++ {
			if g.Degree(graph.NodeID(v)) != 2 {
				t.Fatalf("degree(%d)=%d, want 2", v, g.Degree(graph.NodeID(v)))
			}
		}
	}
}

func TestOneOrTwoCyclesDeterministic(t *testing.T) {
	a := OneOrTwoCycles(20, true, 42)
	b := OneOrTwoCycles(20, true, 42)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("non-deterministic edge count")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("non-deterministic generation for identical seeds")
		}
	}
}

func TestPathStarCliqueGrid(t *testing.T) {
	p := Path(6)
	if p.NumEdges() != 5 {
		t.Fatalf("path edges %d", p.NumEdges())
	}
	s := Star(6)
	if s.NumEdges() != 5 || s.Degree(0) != 5 {
		t.Fatalf("star shape m=%d deg0=%d", s.NumEdges(), s.Degree(0))
	}
	c := Clique(5)
	if c.NumEdges() != 10 {
		t.Fatalf("clique edges %d", c.NumEdges())
	}
	g := Grid(3, 4)
	if g.NumNodes() != 12 || g.NumEdges() != int64(3*3+2*4) {
		t.Fatalf("grid shape n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%100)
		g := RandomTree(n, seed)
		s := graph.ComputeStats(g)
		return g.NumEdges() == int64(n-1) && s.NumComponents == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBoundedDegreeTree(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%200)
		g := RandomBoundedDegreeTree(n, 3, seed)
		if g.NumEdges() != int64(n-1) {
			return false
		}
		if g.MaxDegree() > 3 {
			return false
		}
		return graph.ComputeStats(g).NumComponents == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(200, 600, 1)
	if g.NumNodes() != 200 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 600 {
		t.Fatalf("m=%d out of expected range", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPreferentialAttachmentPowerLaw(t *testing.T) {
	g := PreferentialAttachment(2000, 4, 3)
	if g.NumNodes() != 2000 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	s := graph.ComputeStats(g)
	if s.NumComponents != 1 {
		t.Fatalf("preferential attachment should be connected, cc=%d", s.NumComponents)
	}
	// Heavy tail: max degree far above the average.
	if float64(s.MaxDegree) < 4*s.AvgDegree {
		t.Fatalf("degree distribution not skewed: max=%d avg=%.1f", s.MaxDegree, s.AvgDegree)
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, 5)
	if g.NumNodes() != 1024 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// RMAT with these parameters is skewed.
	tail := SortedDegreeTail(g, 1)
	s := graph.ComputeStats(g)
	if float64(tail[0]) < 3*s.AvgDegree {
		t.Fatalf("RMAT not skewed: max=%d avg=%.1f", tail[0], s.AvgDegree)
	}
}

func TestDegreeProportionalWeights(t *testing.T) {
	g := Star(5)
	wg := DegreeProportionalWeights(g)
	if !wg.Weighted() {
		t.Fatal("not weighted")
	}
	// Edge (0, i): deg(0)=4, deg(i)=1 → weight 5.
	w, ok := wg.WeightBetween(0, 3)
	if !ok || w != 5 {
		t.Fatalf("weight = %v, want 5", w)
	}
}

func TestRandomWeightsSymmetricAndInRange(t *testing.T) {
	g := ErdosRenyi(100, 300, 9)
	wg := RandomWeights(g, 11)
	if err := wg.Validate(); err != nil {
		t.Fatalf("random-weight graph invalid (weights must be symmetric): %v", err)
	}
	wg.ForEachEdge(func(u, v graph.NodeID, w float64) {
		if w <= 0 || w >= 1 {
			t.Fatalf("weight %v out of (0,1)", w)
		}
	})
}

// TestRandomWeightsDrawOrder pins the weights to the draw order the
// generator has always had: one rng.Float64 per edge, the first time
// WithWeights meets it.
func TestRandomWeightsDrawOrder(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"er":    ErdosRenyi(200, 900, 3),
		"hubs":  PreferentialAttachment(300, 4, 5),
		"star":  Star(50),
		"empty": graph.FromEdges(4, nil),
	} {
		rng := rand.New(rand.NewSource(17))
		seen := map[graph.Edge]float64{}
		want := g.WithWeights(func(u, v graph.NodeID) float64 {
			k := graph.Edge{U: u, V: v}
			if _, ok := seen[k]; !ok {
				seen[k] = rng.Float64()
			}
			return seen[k]
		})
		got := RandomWeights(g, 17)
		for v := 0; v < g.NumNodes(); v++ {
			if !slices.Equal(got.NeighborWeights(graph.NodeID(v)), want.NeighborWeights(graph.NodeID(v))) {
				t.Fatalf("%s: weights of vertex %d differ from the reference draw order", name, v)
			}
		}
	}
}

func TestDatasetsRegistry(t *testing.T) {
	ds := Datasets()
	if len(ds) != 5 {
		t.Fatalf("expected 5 datasets, got %d", len(ds))
	}
	wantOrder := []string{"OK", "TW", "FS", "CW", "HL"}
	for i, d := range ds {
		if d.Name != wantOrder[i] {
			t.Fatalf("dataset %d = %s, want %s", i, d.Name, wantOrder[i])
		}
	}
	if _, ok := DatasetByName("TW"); !ok {
		t.Fatal("DatasetByName(TW) not found")
	}
	if _, ok := DatasetByName("nope"); ok {
		t.Fatal("DatasetByName(nope) should not be found")
	}
	names := DatasetNames()
	if len(names) != 5 || names[0] != "OK" {
		t.Fatalf("names %v", names)
	}
}

func TestSocialStandInsShape(t *testing.T) {
	for _, name := range []string{"OK", "TW", "FS"} {
		d, _ := DatasetByName(name)
		g := d.Build(1, 1)
		s := graph.ComputeStats(g)
		if s.NumComponents != 1 {
			t.Errorf("%s: social stand-in should have one component, got %d", name, s.NumComponents)
		}
		if s.ApproxDiameter > 12 {
			t.Errorf("%s: diameter %d too large for a social stand-in", name, s.ApproxDiameter)
		}
	}
}

func TestWebStandInsShape(t *testing.T) {
	for _, name := range []string{"CW", "HL"} {
		d, _ := DatasetByName(name)
		g := d.Build(1, 1)
		s := graph.ComputeStats(g)
		if s.NumComponents < 10 {
			t.Errorf("%s: web stand-in should have many components, got %d", name, s.NumComponents)
		}
		tail := SortedDegreeTail(g, 1)
		if float64(tail[0]) < 20*s.AvgDegree {
			t.Errorf("%s: web stand-in missing extreme hubs: max=%d avg=%.1f", name, tail[0], s.AvgDegree)
		}
	}
}

func TestDatasetSizesOrdered(t *testing.T) {
	// The paper's datasets grow from OK to HL; the stand-ins must preserve
	// that ordering so relative trends across datasets are meaningful.
	var prev int64 = -1
	for _, d := range Datasets() {
		g := d.Build(1, 1)
		if g.NumEdges() <= prev {
			t.Fatalf("dataset %s (%d edges) not larger than its predecessor (%d)", d.Name, g.NumEdges(), prev)
		}
		prev = g.NumEdges()
	}
}

func TestCycleDatasets(t *testing.T) {
	cds := CycleDatasets()
	if len(cds) != 3 {
		t.Fatalf("expected 3 cycle datasets, got %d", len(cds))
	}
	g := cds[0].Build(1, 0)
	s := graph.ComputeStats(g)
	if s.NumComponents != 2 {
		t.Fatalf("cycle dataset should have 2 components, got %d", s.NumComponents)
	}
}

func TestDescribeDataset(t *testing.T) {
	g := Cycle(10)
	out := DescribeDataset("test", g)
	if out == "" {
		t.Fatal("empty description")
	}
}
