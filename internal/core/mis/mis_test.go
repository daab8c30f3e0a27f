package mis

import (
	"testing"
	"testing/quick"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
	"ampcgraph/internal/seq"
)

func defaultCfg(seed int64) ampc.Config {
	return ampc.Config{Machines: 4, Threads: 2, EnableCache: true, Seed: seed}
}

func TestMISOnSmallKnownGraph(t *testing.T) {
	// Triangle plus a pendant: the MIS has exactly one triangle vertex and
	// possibly the pendant.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	res, err := Run(g, defaultCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if !seq.IsMaximalIndependentSet(g, res.InMIS) {
		t.Fatalf("not a maximal independent set: %v", res.InMIS)
	}
}

func TestMISMatchesSequentialGreedy(t *testing.T) {
	// Both the AMPC implementation and the sequential reference compute the
	// lexicographically-first MIS for the same hash-based priorities, so the
	// outputs must be identical (not merely both maximal).
	f := func(seed int64) bool {
		n := 20 + int(uint64(seed)%150)
		g := gen.ErdosRenyi(n, 3*n, seed)
		res, err := Run(g, defaultCfg(seed))
		if err != nil {
			return false
		}
		want := seq.GreedyMIS(g, rng.VertexPriorities(seed, n))
		for v := 0; v < n; v++ {
			if res.InMIS[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMISMaximalOnManyGraphClasses(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"cycle":      gen.Cycle(101),
		"path":       gen.Path(64),
		"star":       gen.Star(40),
		"clique":     gen.Clique(12),
		"grid":       gen.Grid(9, 13),
		"powerlaw":   gen.PreferentialAttachment(300, 3, 7),
		"two-cycles": gen.TwoCycles(50),
		"empty-ish":  graph.FromEdges(10, nil),
	}
	for name, g := range graphs {
		res, err := Run(g, defaultCfg(42))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !seq.IsMaximalIndependentSet(g, res.InMIS) {
			t.Errorf("%s: result is not a maximal independent set", name)
		}
	}
}

func TestMISCliqueHasExactlyOne(t *testing.T) {
	g := gen.Clique(9)
	res, err := Run(g, defaultCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, in := range res.InMIS {
		if in {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("clique MIS size %d, want 1", count)
	}
}

func TestMISEmptyGraphAllIn(t *testing.T) {
	g := graph.FromEdges(7, nil)
	res, err := Run(g, defaultCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	for v, in := range res.InMIS {
		if !in {
			t.Fatalf("isolated vertex %d not in MIS", v)
		}
	}
}

func TestMISUsesOneShuffleTwoRounds(t *testing.T) {
	// Table 3: the AMPC MIS implementation uses a single shuffle and two
	// rounds, the KV write and one search round.
	g := gen.PreferentialAttachment(500, 4, 1)
	res, err := Run(g, defaultCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shuffles != 1 {
		t.Fatalf("shuffles = %d, want 1", res.Stats.Shuffles)
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Stats.Rounds)
	}
	if res.SearchRounds != 1 {
		t.Fatalf("search rounds = %d, want 1", res.SearchRounds)
	}
}

func TestMISPhaseBreakdownPresent(t *testing.T) {
	g := gen.ErdosRenyi(300, 900, 2)
	res, err := Run(g, defaultCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ph := range res.Stats.Phases {
		names[ph.Name] = true
	}
	for _, want := range []string{"DirectGraph", "KV-Write", "IsInMIS"} {
		if !names[want] {
			t.Fatalf("missing phase %q in %v", want, names)
		}
	}
}

func TestMISCachingReducesKVTraffic(t *testing.T) {
	g := gen.PreferentialAttachment(1200, 6, 9)
	base := ampc.Config{Machines: 4, Seed: 9}
	withCache := base
	withCache.EnableCache = true
	resNo, err := Run(g, base)
	if err != nil {
		t.Fatal(err)
	}
	resYes, err := Run(g, withCache)
	if err != nil {
		t.Fatal(err)
	}
	// Results identical.
	for v := range resNo.InMIS {
		if resNo.InMIS[v] != resYes.InMIS[v] {
			t.Fatal("caching changed the result")
		}
	}
	if resYes.Stats.KVBytesTotal >= resNo.Stats.KVBytesTotal {
		t.Fatalf("caching did not reduce key-value traffic: %d vs %d",
			resYes.Stats.KVBytesTotal, resNo.Stats.KVBytesTotal)
	}
	if resYes.Stats.KVReads >= resNo.Stats.KVReads {
		t.Fatalf("caching did not reduce key-value reads: %d vs %d",
			resYes.Stats.KVReads, resNo.Stats.KVReads)
	}
}

func TestMISDeterministicAcrossConfigurations(t *testing.T) {
	g := gen.ErdosRenyi(400, 1600, 11)
	ref, err := Run(g, ampc.Config{Machines: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []ampc.Config{
		{Machines: 8, Seed: 11},
		{Machines: 3, Threads: 4, Seed: 11},
		{Machines: 5, EnableCache: true, Threads: 2, Seed: 11},
	} {
		res, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref.InMIS {
			if res.InMIS[v] != ref.InMIS[v] {
				t.Fatalf("config %+v changed the MIS at vertex %d", cfg, v)
			}
		}
	}
}

func TestMISTruncatedMatchesUntruncated(t *testing.T) {
	g := gen.PreferentialAttachment(600, 5, 13)
	full, err := Run(g, defaultCfg(13))
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := RunTruncated(g, defaultCfg(13))
	if err != nil {
		t.Fatal(err)
	}
	for v := range full.InMIS {
		if full.InMIS[v] != trunc.InMIS[v] {
			t.Fatalf("truncated variant differs at vertex %d", v)
		}
	}
	if !seq.IsMaximalIndependentSet(g, trunc.InMIS) {
		t.Fatal("truncated result not a maximal independent set")
	}
	if trunc.SearchRounds < 1 {
		t.Fatalf("search rounds %d", trunc.SearchRounds)
	}
}

func TestMISTruncatedConvergesOnLongPath(t *testing.T) {
	// A long path with a tiny budget forces several truncated rounds; the
	// algorithm must still converge to the correct lexicographically-first
	// MIS.
	n := 3000
	g := gen.Path(n)
	cfg := ampc.Config{Machines: 4, Seed: 21, SpacePerMachine: 32}
	res, err := RunTruncated(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.GreedyMIS(g, rng.VertexPriorities(21, n))
	for v := 0; v < n; v++ {
		if res.InMIS[v] != want[v] {
			t.Fatalf("mismatch at %d", v)
		}
	}
}

func TestMISKVCommunicationScalesWithEdges(t *testing.T) {
	// Figure 9: the key-value communication grows with the number of edges.
	small := gen.ErdosRenyi(500, 1000, 3)
	large := gen.ErdosRenyi(500, 8000, 3)
	rs, err := Run(small, defaultCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(large, defaultCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if rl.Stats.KVBytesTotal <= rs.Stats.KVBytesTotal {
		t.Fatalf("KV bytes did not grow with edges: %d vs %d", rl.Stats.KVBytesTotal, rs.Stats.KVBytesTotal)
	}
}
