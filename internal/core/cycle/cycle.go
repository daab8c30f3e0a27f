// Package cycle implements the AMPC 1-vs-2-Cycle algorithm of Section 5.6.
//
// The input is promised to be either a single cycle on n vertices or two
// disjoint cycles on n/2 vertices each; the task is to tell which.  The MPC
// model needs Ω(log n) rounds for this under the 1-vs-2-Cycle conjecture,
// while the AMPC algorithm needs O(1) rounds: sample vertices with a small
// probability, walk around the cycle from each sampled vertex until the next
// sampled vertex is reached (using the key-value store for adjacency
// lookups), contract the walks into a graph on the samples, and decide on a
// single machine by counting the cycles of the contracted graph.
package cycle

import (
	"fmt"
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
	"ampcgraph/internal/seq"
)

// Result is the output of the 1-vs-2-Cycle computation.
type Result struct {
	// SingleCycle is true when the input is one cycle, false for two.
	SingleCycle bool
	// NumCycles is the number of cycles found (1 or 2 for promise inputs).
	NumCycles int
	// SampledVertices is the number of sampled vertices.
	SampledVertices int
	// MaxWalkLength is the longest walk performed by any sample.
	MaxWalkLength int
	// Stats are the runtime statistics.
	Stats ampc.Stats
}

// SampleProbability is the default sampling probability used by the paper's
// implementation (1/1024).
const SampleProbability = 1.0 / 1024

// Run decides whether g is a single cycle or two cycles.  Every vertex of g
// must have degree exactly 2.
func Run(g *graph.Graph, cfg ampc.Config) (*Result, error) {
	return RunWithProbability(g, cfg, SampleProbability)
}

// RunWithProbability is Run with an explicit sampling probability, exposed
// for the sampling-rate ablation.
func RunWithProbability(g *graph.Graph, cfg ampc.Config, p float64) (*Result, error) {
	rt := ampc.New(cfg)
	defer rt.Close()
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		if g.Degree(graph.NodeID(v)) != 2 {
			return nil, fmt.Errorf("cycle: vertex %d has degree %d, want 2", v, g.Degree(graph.NodeID(v)))
		}
	}
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("cycle: sampling probability %v out of (0,1]", p)
	}
	cfgD := rt.Config()
	// Every vertex has degree 2, so the degree-weighted partition reduces to
	// the uniform range split; declaring it keeps the five algorithms on one
	// ownership seam.
	rt.SetOwnership(graph.DegreeWeights(g))
	res := &Result{}

	var sampled []bool
	var samples []graph.NodeID
	err := rt.Phase("Sample", func() error {
		sampled, samples = chooseSamples(n, cfgD.Seed, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.SampledVertices = len(samples)

	// Write the adjacency lists to the key-value store (the single shuffle
	// of the AMPC algorithm), then walk from every sample in both
	// directions until the next sample.  The walk reads exactly the store
	// the KV-write produces, so the two rounds form one staged sequence:
	// per-round barriers by default, one dependency-scheduled pipeline
	// under Config.Pipeline.
	store, err := rt.OpenStore("cycle-adjacency")
	if err != nil {
		return nil, err
	}
	// Every vertex has degree 2, so every list has the same encoded size:
	// all of them go into one arena, and vertex v's value is its stride.
	stride := codec.SizeOfNodeList(2)
	var enc []byte
	err = rt.Phase("Shuffle", func() error {
		enc = make([]byte, 0, stride*n)
		for v := 0; v < n; v++ {
			enc, _ = codec.AppendNodeList(enc, g.Neighbors(graph.NodeID(v)))
		}
		rt.RecordShuffle("cycle-graph", int64(len(enc)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	writeRound := rt.WriteTableRound("kv-write", store, n, 1, func(item int) []byte {
		return enc[stride*item : stride*(item+1) : stride*(item+1)]
	})

	type link struct{ a, b graph.NodeID }
	var mu sync.Mutex
	var links []link
	maxWalk := 0
	totalSteps := 0
	recordWalk := func(start, end graph.NodeID, steps int) {
		links = append(links, link{start, end})
		totalSteps += steps
		if steps > maxWalk {
			maxWalk = steps
		}
	}
	var walkRound ampc.Round
	if cfgD.Batch {
		// Lock-step walks over shard-grouped batches (batch.go).
		walkRound = batchWalkRound(rt, store, g, samples, sampled, &mu, recordWalk)
	} else {
		owner := rt.OwnerPartitioner(n)
		walkRound = ampc.Round{
			Name:  "walk",
			Items: len(samples),
			Read:  store,
			// A walk starts at its sample's own adjacency record, so owning
			// the sample means owning the first lookups of the walk.
			Partitioner: func(item int) int { return owner(int(samples[item])) },
			Body: func(ctx *ampc.Ctx, item int) error {
				start := samples[item]
				for _, first := range g.Neighbors(start) {
					end, steps, err := walk(ctx, start, first, sampled, n)
					if err != nil {
						return err
					}
					mu.Lock()
					recordWalk(start, end, steps)
					mu.Unlock()
				}
				return nil
			},
		}
	}
	err = rt.RunStaged([]ampc.StagedRound{
		{Phase: "KV-Write", Round: writeRound},
		{Phase: "Walk", Round: walkRound},
	})
	if err != nil {
		return nil, err
	}
	res.MaxWalkLength = maxWalk

	// Contract to the sampled graph and solve on a single machine.
	err = rt.Phase("Contract", func() error {
		rt.RecordShuffle("sampled-graph", int64(len(links))*8)
		// Count the cycles of the multigraph on the samples.  Each sample has
		// exactly two walks (one per direction) and each cycle of the input
		// maps to one cycle of the sampled multigraph, so the number of
		// components of the sampled graph equals the number of cycles.
		index := make(map[graph.NodeID]graph.NodeID, len(samples))
		for i, s := range samples {
			index[s] = graph.NodeID(i)
		}
		ds := seq.NewDSU(len(samples))
		for _, l := range links {
			ds.Union(index[l.a], index[l.b])
		}
		res.NumCycles = ds.NumSets()
		// Every edge of a cycle containing a sample is traversed exactly
		// twice (once per direction), so fewer than 2n total steps means some
		// cycle received no sample at all and must be counted separately.
		if totalSteps < 2*n {
			res.NumCycles++
		}
		res.SingleCycle = res.NumCycles == 1
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = rt.Stats()
	return res, nil
}

// chooseSamples samples every vertex of [0, n) with probability p, from the
// seed alone.  At least two vertices are always sampled so the contracted
// graph is well defined even on tiny inputs.
func chooseSamples(n int, seed int64, p float64) (sampled []bool, samples []graph.NodeID) {
	sampled = make([]bool, n)
	for v := 0; v < n; v++ {
		if rng.UniformFloat(seed+3, uint64(v)) < p {
			sampled[v] = true
			samples = append(samples, graph.NodeID(v))
		}
	}
	for v := 0; len(samples) < 2 && v < n; v++ {
		if !sampled[v] {
			sampled[v] = true
			samples = append(samples, graph.NodeID(v))
		}
	}
	return sampled, samples
}

// walk follows the cycle from start through its neighbor first until a
// sampled vertex is reached, returning that vertex and the number of steps.
func walk(ctx *ampc.Ctx, start, first graph.NodeID, sampled []bool, n int) (graph.NodeID, int, error) {
	prev, cur := start, first
	steps := 1
	for !sampled[cur] {
		raw, ok, err := ctx.Lookup(uint64(cur))
		if err != nil {
			return graph.None, 0, err
		}
		if !ok {
			return graph.None, 0, fmt.Errorf("cycle: vertex %d missing from the key-value store", cur)
		}
		nbrs, err := codec.ViewNodeIDs(raw)
		if err != nil {
			return graph.None, 0, err
		}
		if nbrs.Len() != 2 {
			return graph.None, 0, fmt.Errorf("cycle: vertex %d has %d neighbours in the key-value store, want 2", cur, nbrs.Len())
		}
		next := nbrs.At(0)
		if next == prev {
			next = nbrs.At(1)
		}
		prev, cur = cur, next
		steps++
		ctx.ChargeCompute(1)
		if steps > n+1 {
			return graph.None, 0, fmt.Errorf("cycle: walk from %d did not terminate", start)
		}
	}
	return cur, steps, nil
}
