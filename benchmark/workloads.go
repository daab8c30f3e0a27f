package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/core/connectivity"
	"ampcgraph/internal/core/cycle"
	"ampcgraph/internal/core/matching"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/core/msf"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/seq"
)

// The load shape shared by every workload: two machines of one thread each,
// two pool goroutines on a two-core box, and never more than two clients.
const (
	machines   = 2
	maxClients = 2
)

// jobSpec is one algorithm run on one named input.
type jobSpec struct {
	Algo  string // mis, mm, msf, cc, cycle
	Input string // G2, G1, WG1, C200, C100
}

// workload is one set of inputs and one configuration the benchmark runs.  A
// rep is one pass over Jobs; for the serving workload the jobs are a queue two
// closed-loop clients pull from on one warm Session.
type workload struct {
	Name    string
	Why     string
	Jobs    []jobSpec
	Serving bool
	// Config returns the workload's ampc configuration; diskDir is a fresh
	// temporary directory for backends that need one.
	Config func(seed int64, diskDir string) ampc.Config
}

// baseConfig is "mem plain": in-memory engine, per-machine caches on, hash
// placement, single-key reads and writes, per-round barriers.  It is also the
// reference configuration every other workload's outputs must match byte for
// byte.
func baseConfig(seed int64) ampc.Config {
	return ampc.Config{Machines: machines, Threads: 1, EnableCache: true, Seed: seed}
}

var adaptiveJobs = []jobSpec{{"mis", "G2"}, {"mm", "G2"}, {"cycle", "C200"}}
var engineJobs = []jobSpec{{"mis", "G1"}, {"mm", "G1"}, {"cycle", "C100"}}

// servingQueue is [cc, mis, mm, mis, mm, mis, mm, mis] twice.
func servingQueue() []jobSpec {
	one := []jobSpec{{"cc", "G1"}, {"mis", "G1"}, {"mm", "G1"}, {"mis", "G1"}, {"mm", "G1"}, {"mis", "G1"}, {"mm", "G1"}, {"mis", "G1"}}
	return append(append([]jobSpec(nil), one...), one...)
}

var workloads = []workload{
	{
		Name: "adaptive_plain",
		Why:  "single-key path: large adjacency reads plus ~400k small writes and reads through Ctx.Lookup/Write; ampc hot path, dht facade, mem engine and codec decode do the work (mis+mm on HLx2, cycle 2x200k)",
		Jobs: adaptiveJobs,
		Config: func(seed int64, _ string) ampc.Config {
			return baseConfig(seed)
		},
	},
	{
		Name: "adaptive_tuned",
		Why:  "same jobs and inputs through ReadMany/Stream/WriteMany, compiled plans and sub-round gating (Batch, Pipeline, weighted placement); a batch-path gain must not cost adaptive_plain",
		Jobs: adaptiveJobs,
		Config: func(seed int64, _ string) ampc.Config {
			cfg := baseConfig(seed)
			cfg.Batch, cfg.Pipeline, cfg.Placement = true, true, ampc.PlacementWeighted
			return cfg
		},
	},
	{
		Name: "contract_mem",
		Why:  "shuffle- and write-dominated contraction (msf on weighted HLx1, connectivity on HLx1): dht reads are a small share, so store/codec work predicts no change and host-side shuffle/alloc work a large one",
		Jobs: []jobSpec{{"msf", "WG1"}, {"cc", "G1"}},
		Config: func(seed int64, _ string) ampc.Config {
			return baseConfig(seed)
		},
	},
	{
		Name: "engine_disk",
		Why:  "fault-tolerant deployment, nothing failing: log-structured disk engine, replica writes, retry wrapper, buffered sub-round writes (mis+mm on HLx1, cycle 2x100k); mem-engine changes must not move it",
		Jobs: engineJobs,
		Config: func(seed int64, diskDir string) ampc.Config {
			cfg := baseConfig(seed)
			cfg.Backend, cfg.DiskDir = ampc.BackendDisk, diskDir
			cfg.Batch, cfg.Replicate = true, true
			cfg.Retry, cfg.FaultBudget = &dht.RetryPolicy{MaxAttempts: 4}, 4
			return cfg
		},
	},
	{
		Name: "engine_rpc",
		Why:  "same jobs as engine_disk over real gob and loopback socket round trips behind the ShardBackend seam: the transport's cost shows only here, and it yields the measured-vs-modeled RTT",
		Jobs: engineJobs,
		Config: func(seed int64, _ string) ampc.Config {
			cfg := baseConfig(seed)
			cfg.Backend, cfg.Batch = ampc.BackendRPC, true
			return cfg
		},
	},
	{
		Name:    "serving_mem",
		Why:     "closed loop, 2 clients, 16-job queue on one warm Session with resident mis/mm substrates (HLx1): admission, plan cache, shared and per-job stores; session-lifetime costs show only here",
		Jobs:    servingQueue(),
		Serving: true,
		Config: func(seed int64, _ string) ampc.Config {
			cfg := baseConfig(seed)
			cfg.Pipeline = true
			return cfg
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// inputSet generates and holds the named input graphs of one seed, timing each
// build.  Scale "tiny" divides every input by about 50 for the smoke test.
type inputSet struct {
	seed   int64
	tiny   bool
	graphs map[string]*graph.Graph
	buildS map[string]float64
}

func newInputSet(seed int64, tiny bool) *inputSet {
	return &inputSet{seed: seed, tiny: tiny, graphs: map[string]*graph.Graph{}, buildS: map[string]float64{}}
}

func (in *inputSet) get(name string) *graph.Graph {
	if g, ok := in.graphs[name]; ok {
		return g
	}
	var dep *graph.Graph
	if name == "WG1" {
		dep = in.get("G1") // built (and timed) on its own
	}
	start := time.Now()
	var g *graph.Graph
	switch name {
	case "G2":
		g = in.web(2)
	case "G1":
		g = in.web(1)
	case "WG1":
		g = gen.DegreeProportionalWeights(dep)
	case "C200":
		g = gen.TwoCycles(in.div(200_000))
	case "C100":
		g = gen.TwoCycles(in.div(100_000))
	default:
		panic("benchmark: unknown input " + name)
	}
	in.buildS[name] = time.Since(start).Seconds()
	in.graphs[name] = g
	return g
}

func (in *inputSet) div(n int) int {
	if in.tiny {
		return n / 50
	}
	return n
}

// web is the gen HL dataset (Hyperlink2012 stand-in: hubs, many components)
// at the given scale; the tiny variant keeps a giant component plus islands at
// a fiftieth of the vertices.
func (in *inputSet) web(scale int) *graph.Graph {
	if !in.tiny {
		hl, _ := gen.DatasetByName("HL")
		return hl.Build(scale, in.seed)
	}
	n := 26_000 * scale / 50
	giant := gen.PreferentialAttachment(n*8/10, 8, in.seed)
	b := graph.NewBuilder(n)
	giant.ForEachEdge(func(u, v graph.NodeID, _ float64) { b.AddEdge(u, v) })
	for off := n * 8 / 10; off+8 <= n; off += 8 {
		island := gen.PreferentialAttachment(8, 2, in.seed+int64(off))
		island.ForEachEdge(func(u, v graph.NodeID, _ float64) {
			b.AddEdge(u+graph.NodeID(off), v+graph.NodeID(off))
		})
	}
	return b.Build()
}

// edges is the summed edge count of the inputs of one rep of w.
func (in *inputSet) edges(w *workload) int64 {
	var m int64
	for _, j := range w.Jobs {
		m += in.get(j.Input).NumEdges()
	}
	return m
}

// msfOut and cycleOut are the comparable outputs of the two algorithms whose
// results are more than one slice.
type msfOut struct {
	Edges []graph.WeightedEdge
	Total float64
}

type cycleOut struct {
	Single                 bool
	Cycles, Sampled, Walks int
}

// runOneShot runs one job the way a user would: a private runtime built, used
// and torn down by the algorithm's Run.
func runOneShot(j jobSpec, g *graph.Graph, cfg ampc.Config) (any, ampc.Stats, error) {
	switch j.Algo {
	case "mis":
		r, err := mis.Run(g, cfg)
		if err != nil {
			return nil, ampc.Stats{}, err
		}
		return r.InMIS, r.Stats, nil
	case "mm":
		r, err := matching.Run(g, cfg)
		if err != nil {
			return nil, ampc.Stats{}, err
		}
		return r.Matching.Mate, r.Stats, nil
	case "msf":
		r, err := msf.Run(g, cfg)
		if err != nil {
			return nil, ampc.Stats{}, err
		}
		return msfOut{r.Edges, r.TotalWeight}, r.Stats, nil
	case "cc":
		r, err := connectivity.Run(g, cfg)
		if err != nil {
			return nil, ampc.Stats{}, err
		}
		return r.Components, r.Stats, nil
	case "cycle":
		r, err := cycle.Run(g, cfg)
		if err != nil {
			return nil, ampc.Stats{}, err
		}
		return cycleOut{r.SingleCycle, r.NumCycles, r.SampledVertices, r.MaxWalkLength}, r.Stats, nil
	}
	return nil, ampc.Stats{}, fmt.Errorf("benchmark: unknown algorithm %q", j.Algo)
}

// oracle holds the independent ground truth of each input, computed once and
// outside any timed region.
type oracle struct {
	in         *inputSet
	components map[string][]graph.NodeID
	msfWeight  map[string]float64
}

func newOracle(in *inputSet) *oracle {
	return &oracle{in: in, components: map[string][]graph.NodeID{}, msfWeight: map[string]float64{}}
}

// valid checks one job output against the internal/seq oracles: MIS
// independent and maximal, matching valid and maximal, MSF spanning with
// Kruskal's weight, components equal to union-find's, cycle count equal to the
// generator's.
func (o *oracle) valid(j jobSpec, out any) bool {
	g := o.in.get(j.Input)
	switch v := out.(type) {
	case []bool:
		return j.Algo == "mis" && len(v) == g.NumNodes() &&
			seq.IsIndependentSet(g, v) && seq.IsMaximalIndependentSet(g, v)
	case []graph.NodeID:
		if len(v) != g.NumNodes() {
			return false
		}
		if j.Algo == "mm" {
			m := &seq.Matching{Mate: v}
			return seq.IsMatching(g, m) && seq.IsMaximalMatching(g, m)
		}
		want, ok := o.components[j.Input]
		if !ok {
			want = seq.ConnectedComponents(g)
			o.components[j.Input] = want
		}
		return j.Algo == "cc" && graph.SameComponents(v, want)
	case msfOut:
		want, ok := o.msfWeight[j.Input]
		if !ok {
			want = seq.MSFWeight(seq.KruskalMSF(g))
			o.msfWeight[j.Input] = want
		}
		return seq.IsSpanningForest(g, v.Edges) &&
			math.Abs(v.Total-want) <= 1e-9*math.Max(1, math.Abs(want)) &&
			math.Abs(seq.MSFWeight(v.Edges)-want) <= 1e-9*math.Max(1, math.Abs(want))
	case cycleOut:
		return !v.Single && v.Cycles == 2 // every cycle input is gen.TwoCycles
	}
	return false
}

// checker verifies job outputs after the timed region: each must pass its
// oracle and be byte-identical to the same job under the reference (mem plain)
// configuration, which is what makes adaptive_plain/adaptive_tuned and
// engine_disk/engine_rpc agree with each other.  Outputs equal to one already
// verified are accepted by comparison.
type checker struct {
	o      *oracle
	seed   int64
	useRef bool
	good   map[jobSpec]any
	ref    map[jobSpec]any
}

func newChecker(in *inputSet, useRef bool) *checker {
	return &checker{o: newOracle(in), seed: in.seed, useRef: useRef, good: map[jobSpec]any{}, ref: map[jobSpec]any{}}
}

func (c *checker) ok(j jobSpec, out any) bool {
	if good, seen := c.good[j]; seen && reflect.DeepEqual(out, good) {
		return true
	}
	if !c.o.valid(j, out) {
		return false
	}
	if c.useRef {
		ref, seen := c.ref[j]
		if !seen {
			var err error
			ref, _, err = runOneShot(j, c.o.in.get(j.Input), baseConfig(c.seed))
			if err != nil {
				return false
			}
			c.ref[j] = ref
		}
		if !reflect.DeepEqual(out, ref) {
			return false
		}
	}
	c.good[j] = out
	return true
}
