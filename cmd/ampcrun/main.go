// Command ampcrun runs a single AMPC or MPC algorithm on a generated dataset
// and prints the result summary together with the runtime statistics the
// paper measures (rounds, shuffles, key-value traffic, modeled time).
//
// Usage:
//
//	ampcrun -algorithm mis -dataset OK
//	ampcrun -algorithm msf -dataset TW -machines 16 -model tcp
//	ampcrun -algorithm mpc-mis -dataset OK
//	ampcrun -algorithm cycle -cycle-length 100000 -single=false
//	ampcrun -algorithm matching -dataset HL -machines 2 -threads 1 -cpuprofile cpu.prof -memprofile mem.prof
//	ampcrun -algorithm cycle -cycle-length 200000 -machines 2 -threads 1 -batch -placement weighted -cpuprofile cpu.prof
//
// -batch and -placement set the ampc.Config fields of the same
// names, spelled as ampcbench spells them.  -cpuprofile and -memprofile cover
// the algorithm run only, not the dataset generation before it; read them
// with `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ampcgraph/internal/ampc"
	bcc "ampcgraph/internal/baseline/cc"
	bmatching "ampcgraph/internal/baseline/matching"
	bmis "ampcgraph/internal/baseline/mis"
	bmsf "ampcgraph/internal/baseline/msf"
	"ampcgraph/internal/core/connectivity"
	"ampcgraph/internal/core/cycle"
	"ampcgraph/internal/core/matching"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/core/msf"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/mpc"
	"ampcgraph/internal/prof"
	"ampcgraph/internal/simtime"
)

func main() {
	var (
		algorithm   = flag.String("algorithm", "mis", "mis | matching | msf | connectivity | cycle | mpc-mis | mpc-matching | mpc-msf | mpc-cc")
		dataset     = flag.String("dataset", "OK", "dataset name (OK, TW, FS, CW, HL)")
		scale       = flag.Int("scale", 1, "dataset scale multiplier")
		seed        = flag.Int64("seed", 1, "random seed")
		machines    = flag.Int("machines", 8, "number of AMPC machines")
		threads     = flag.Int("threads", 4, "threads per machine")
		cache       = flag.Bool("cache", true, "enable the per-machine caching optimization")
		model       = flag.String("model", "rdma", "key-value latency model: rdma | tcp | dram")
		cycleLength = flag.Int("cycle-length", 100_000, "cycle length for -algorithm cycle")
		single      = flag.Bool("single", false, "use a single cycle instead of two for -algorithm cycle")
		threshold   = flag.Int("mpc-threshold", 2000, "in-memory switch-over threshold for MPC baselines")
		batch       = flag.Bool("batch", false, "run the AMPC algorithm with the shard-grouped batch pipeline")
		placement   = flag.String("placement", ampc.PlacementHash, "shard placement policy: hash | owner | weighted")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the algorithm run to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile of the algorithm run to this file")
	)
	flag.Parse()

	cfg := ampc.Config{Machines: *machines, Threads: *threads, EnableCache: *cache, Seed: *seed,
		Batch: *batch, Placement: *placement}
	switch *placement {
	case ampc.PlacementHash, ampc.PlacementOwnerAffine, ampc.PlacementWeighted:
	default:
		fail(fmt.Errorf("unknown placement %q", *placement))
	}
	switch *model {
	case "rdma":
		cfg.Model = simtime.RDMA()
	case "tcp":
		cfg.Model = simtime.TCP()
	case "dram":
		cfg.Model = simtime.DRAM()
	default:
		fail(fmt.Errorf("unknown latency model %q", *model))
	}

	var g *graph.Graph
	if *algorithm == "cycle" || *algorithm == "mpc-cc" {
		g = gen.OneOrTwoCycles(*cycleLength, *single, *seed)
	} else {
		d, ok := gen.DatasetByName(*dataset)
		if !ok {
			fail(fmt.Errorf("unknown dataset %q (known: %v)", *dataset, gen.DatasetNames()))
		}
		g = d.Build(*scale, *seed)
	}
	fmt.Println(gen.DescribeDataset(*dataset, g))

	pipeline := mpc.NewPipeline(mpc.Config{Seed: *seed, Model: cfg.Model})
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	exitOn(err)
	start := time.Now()
	switch *algorithm {
	case "mis":
		res, err := mis.Run(g, cfg)
		exitOn(err)
		count := 0
		for _, in := range res.InMIS {
			if in {
				count++
			}
		}
		fmt.Printf("MIS size: %d\n", count)
		printAMPCStats(res.Stats)
	case "matching":
		res, err := matching.Run(g, cfg)
		exitOn(err)
		fmt.Printf("matching size: %d\n", res.Matching.Size())
		printAMPCStats(res.Stats)
	case "msf":
		res, err := msf.Run(gen.DegreeProportionalWeights(g), cfg)
		exitOn(err)
		fmt.Printf("forest edges: %d, total weight: %.1f\n", len(res.Edges), res.TotalWeight)
		printAMPCStats(res.Stats)
	case "connectivity":
		res, err := connectivity.Run(g, cfg)
		exitOn(err)
		fmt.Printf("connected components: %d\n", res.NumComponents)
		printAMPCStats(res.Stats)
	case "cycle":
		res, err := cycle.Run(g, cfg)
		exitOn(err)
		fmt.Printf("single cycle: %v (samples %d, longest walk %d)\n", res.SingleCycle, res.SampledVertices, res.MaxWalkLength)
		printAMPCStats(res.Stats)
	case "mpc-mis":
		res, err := bmis.Run(g, pipeline, bmis.Options{InMemoryThreshold: *threshold})
		exitOn(err)
		count := 0
		for _, in := range res.InMIS {
			if in {
				count++
			}
		}
		fmt.Printf("MIS size: %d (%d phases)\n", count, res.Phases)
		printMPCStats(res.Stats)
	case "mpc-matching":
		res, err := bmatching.Run(g, pipeline, bmatching.Options{InMemoryThreshold: *threshold})
		exitOn(err)
		fmt.Printf("matching size: %d (%d phases)\n", res.Matching.Size(), res.Phases)
		printMPCStats(res.Stats)
	case "mpc-msf":
		res, err := bmsf.Run(gen.DegreeProportionalWeights(g), pipeline, bmsf.Options{InMemoryThreshold: *threshold})
		exitOn(err)
		fmt.Printf("forest edges: %d, total weight: %.1f (%d phases)\n", len(res.Edges), res.TotalWeight, res.Phases)
		printMPCStats(res.Stats)
	case "mpc-cc":
		res, err := bcc.Run(g, pipeline, bcc.Options{InMemoryThreshold: *threshold, Relabel: true})
		exitOn(err)
		fmt.Printf("connected components: %d (%d phases)\n", res.NumComponents, res.Phases)
		printMPCStats(res.Stats)
	default:
		fail(fmt.Errorf("unknown algorithm %q", *algorithm))
	}
	fmt.Printf("wall-clock: %s\n", time.Since(start).Round(time.Millisecond))
	exitOn(stopProfiles())
}

func printAMPCStats(st ampc.Stats) {
	fmt.Printf("rounds: %d, shuffles: %d, shuffle bytes: %d\n", st.Rounds, st.Shuffles, st.ShuffleBytes)
	fmt.Printf("kv reads: %d, kv writes: %d, kv bytes: %d\n", st.KVReads, st.KVWrites, st.KVBytesTotal)
	fmt.Printf("cache hits: %d, max per-machine queries: %d\n", st.CacheHits, st.MaxMachineQueries)
	fmt.Printf("modeled time: %s\n", st.Sim.Round(time.Millisecond))
	for _, ph := range st.Phases {
		fmt.Printf("  phase %-20s model=%-12s wall=%-12s shuffles=%d kv-bytes=%d\n",
			ph.Name, ph.Sim.Round(time.Millisecond), ph.Wall.Round(10*time.Microsecond), ph.Shuffles, ph.KVBytes)
	}
}

func printMPCStats(st mpc.Stats) {
	fmt.Printf("shuffles: %d, shuffle bytes: %d, max group (skew): %d\n", st.Shuffles, st.ShuffleBytes, st.MaxGroupSize)
	fmt.Printf("modeled time: %s\n", st.Sim.Round(time.Millisecond))
}

func exitOn(err error) {
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ampcrun:", err)
	os.Exit(1)
}
