package cycle

import (
	"runtime"
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
)

// TestBatchedMatchesUnbatched asserts that the lock-step batched walks visit
// exactly the vertices the sequential walks visit, on both promise inputs.
func TestBatchedMatchesUnbatched(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		two  bool
	}{
		{"single", 4001, false},
		{"double", 4000, true},
	} {
		g := gen.Cycle(tc.n)
		if tc.two {
			g = gen.TwoCycles(tc.n)
		}
		cfg := defaultCfg(5)
		plain, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Batch = true
		batched, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain.SingleCycle != batched.SingleCycle || plain.NumCycles != batched.NumCycles {
			t.Fatalf("%s: answer %v/%d vs %v/%d", tc.name,
				plain.SingleCycle, plain.NumCycles, batched.SingleCycle, batched.NumCycles)
		}
		if plain.MaxWalkLength != batched.MaxWalkLength {
			t.Fatalf("%s: max walk %d vs %d", tc.name, plain.MaxWalkLength, batched.MaxWalkLength)
		}
		if batched.Stats.BatchesIssued == 0 {
			t.Fatalf("%s: batched run issued no batches", tc.name)
		}
	}
}

// TestWalkBlocksRunOnTheirOwners is the regression test for the walk round's
// block formation.  The blocks used to be a grid of BatchSize samples, each
// assigned to the owner of its first sample: with fewer samples than
// BatchSize (two 20 000-cycles have about 40) that is one block, and one
// machine walked both cycles while the others idled.  Blocks are now cut at
// ownership boundaries: every machine owning a sample executes a walk block,
// no block holds samples of two owners, and the answer is the plain run's.
// With two machines each owns one whole cycle, so under the weighted
// placement no walk read leaves its machine and the store traffic equals the
// plain (cached) run's.
func TestWalkBlocksRunOnTheirOwners(t *testing.T) {
	g := gen.TwoCycles(20_000)
	n := g.NumNodes()
	for machines := 2; machines <= 4; machines++ {
		cfg := ampc.Config{Machines: machines, Threads: 1, EnableCache: true, Seed: 1, Placement: ampc.PlacementWeighted}
		plain, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Batch = true
		batched, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain.SingleCycle != batched.SingleCycle || plain.NumCycles != batched.NumCycles ||
			plain.SampledVertices != batched.SampledVertices || plain.MaxWalkLength != batched.MaxWalkLength {
			t.Fatalf("machines=%d: batched %+v, plain %+v", machines, batched, plain)
		}

		rt := ampc.New(cfg)
		rt.SetOwnership(graph.DegreeWeights(g))
		_, samples := chooseSamples(n, cfg.Seed, SampleProbability)
		blocks := rt.OwnerCutBlocks(rt.Config().BatchSize, len(samples), n, func(i int) int { return int(samples[i]) })
		owner := rt.OwnerPartitioner(n)
		owns, runs := make([]bool, machines), make([]bool, machines)
		next := 0
		for _, b := range blocks {
			if b.Lo != next || b.Hi <= b.Lo {
				t.Fatalf("machines=%d: block %+v does not continue at sample %d", machines, b, next)
			}
			next = b.Hi
			runs[b.Machine] = true
			for i := b.Lo; i < b.Hi; i++ {
				if o := owner(int(samples[i])); o != b.Machine {
					t.Fatalf("machines=%d: block %+v holds sample %d of machine %d", machines, b, samples[i], o)
				}
			}
		}
		if next != len(samples) {
			t.Fatalf("machines=%d: blocks cover %d of %d samples", machines, next, len(samples))
		}
		for _, s := range samples {
			owns[owner(int(s))] = true
		}
		rt.Close()
		for m := range owns {
			if owns[m] && (!runs[m] || batched.Stats.MachineQueries[m] == 0) {
				t.Fatalf("machines=%d: machine %d owns a sample but walked nothing (block %v, queries %v)",
					machines, m, runs[m], batched.Stats.MachineQueries)
			}
		}
		if machines == 2 {
			if batched.Stats.RemoteReads != 0 {
				t.Fatalf("each machine owns its cycle, yet %d of %d reads were remote", batched.Stats.RemoteReads, batched.Stats.KVReads)
			}
			if batched.Stats.KVReads != plain.Stats.KVReads || batched.Stats.KVBytesTotal != plain.Stats.KVBytesTotal {
				t.Fatalf("store traffic: batched %d reads / %d bytes, plain %d / %d",
					batched.Stats.KVReads, batched.Stats.KVBytesTotal, plain.Stats.KVReads, plain.Stats.KVBytesTotal)
			}
		}
	}
}

// BenchmarkStreamWalk measures the batched walk end to end — KV-write plus
// the streamed walks of two 50 000-cycles on a pool of two machines of one
// thread — per walk step (every vertex is stepped over twice, once per
// direction).
func BenchmarkStreamWalk(b *testing.B) {
	g := gen.TwoCycles(50_000)
	cfg := ampc.Config{Machines: 2, Threads: 1, EnableCache: true, Batch: true, Seed: 1}
	steps := float64(2 * g.NumNodes())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.SingleCycle {
			b.Fatal("two cycles reported as one")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/steps, "ns/step")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/steps, "allocs/step")
}
