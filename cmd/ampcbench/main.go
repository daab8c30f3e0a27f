// Command ampcbench regenerates the tables and figures of the paper's
// evaluation (Section 5) on the synthetic stand-in datasets, and runs the
// system experiments (batch, locality, pipeline, rebalance, adaptive,
// backend, chaos, serving) built on the same harness.
//
// Usage:
//
//	ampcbench -experiment table3
//	ampcbench -experiment figure5,figure6 -datasets OK,TW -machines 16
//	ampcbench -experiment all
//	ampcbench -experiment figure5 -batch
//	ampcbench -experiment batch,chaos -json BENCH_smoke.json
//
// Each experiment prints a text table whose rows mirror the corresponding
// table or figure of the paper; EXPERIMENTS.md has one section per
// experiment: what it reproduces, the datasets it pins and its gates.  Every
// experiment accepts the same flag set, registered once by benchFlags:
// -batch runs the AMPC algorithms through the shard-grouped batch pipeline,
// -placement selects the shard placement policy (hash, owner, or weighted),
// -pipeline runs the rounds through the dependency-aware pipelined scheduler
// and -backend selects the shard storage engine (mem, disk or rpc).  An
// experiment that pins one of those flags because it is its comparison axis
// (bench.Experiment.Pins) rejects an explicit setting with exit code 2
// instead of silently ignoring it.
//
// With -json the experiments run on their pinned smoke datasets (unless
// -datasets names others) and the gate rows of whatever ran are written to
// the path: `make bench-smoke` names the gated experiments and writes
// BENCH_smoke.json, which cmd/benchcheck holds fresh runs against.
//
// -cpuprofile and -memprofile cover the experiment runs (dataset generation
// included — an experiment builds its own inputs); read them with
// `go tool pprof`.  A run that fails leaves no usable profile.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ampcgraph/internal/bench"
	"ampcgraph/internal/prof"
)

// benchFlags is the shared flag set: every experiment sees the same flags,
// registered in one place, so no experiment grows a private dialect.
type benchFlags struct {
	experiment string
	datasets   string
	scale      int
	seed       int64
	machines   int
	threads    int
	threshold  int
	batch      bool
	placement  string
	pipeline   bool
	backend    string
	jsonPath   string
	cpuProfile string
	memProfile string
}

func (f *benchFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.experiment, "experiment", "all", "comma-separated experiments to run: "+strings.Join(bench.AllExperiments(), ", ")+", or 'all'")
	fs.StringVar(&f.datasets, "datasets", "", "comma-separated dataset names (default: the experiment's own, usually all of OK,TW,FS,CW,HL)")
	fs.IntVar(&f.scale, "scale", 1, "dataset scale multiplier")
	fs.Int64Var(&f.seed, "seed", 1, "random seed")
	fs.IntVar(&f.machines, "machines", 8, "number of AMPC machines")
	fs.IntVar(&f.threads, "threads", 4, "threads per AMPC machine")
	fs.IntVar(&f.threshold, "mpc-threshold", 2000, "in-memory switch-over threshold (edges) for the MPC baselines")
	fs.BoolVar(&f.batch, "batch", false, "run the AMPC algorithms with the shard-grouped batch pipeline")
	fs.StringVar(&f.placement, "placement", "", "shard placement policy for the AMPC runs: hash (default), owner, or weighted (degree-balanced ownership)")
	fs.BoolVar(&f.pipeline, "pipeline", false, "run the AMPC algorithms with dependency-aware round pipelining")
	fs.StringVar(&f.backend, "backend", "", "shard storage backend for the AMPC runs: mem (default), disk, or rpc")
	fs.StringVar(&f.jsonPath, "json", "", "run on the pinned smoke datasets and write the gate rows of the experiments that ran to this path")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write an allocation profile of the experiment runs to this file")
}

func (f *benchFlags) options() bench.Options {
	opts := bench.Options{
		Scale:        f.scale,
		Seed:         f.seed,
		Machines:     f.machines,
		Threads:      f.threads,
		MPCThreshold: f.threshold,
		Batch:        f.batch,
		Placement:    f.placement,
		Pipeline:     f.pipeline,
		Backend:      f.backend,
	}
	if f.datasets != "" {
		opts.Datasets = strings.Split(f.datasets, ",")
	}
	return opts
}

// experimentNames expands the -experiment value: a comma-separated list, or
// 'all' for the whole registry.
func (f *benchFlags) experimentNames() []string {
	if f.experiment == "all" {
		return bench.AllExperiments()
	}
	return strings.Split(f.experiment, ",")
}

// rejectPinned returns an error when one of the explicitly set flags is
// pinned by an experiment about to run — the flag is that experiment's
// comparison axis, so accepting it would silently ignore it.
func rejectPinned(exps []bench.Experiment, set map[string]bool) error {
	for _, e := range exps {
		for _, fl := range e.Pins {
			if set[fl] {
				return fmt.Errorf("experiment %s sweeps -%s itself (it is the comparison axis); drop -%s or pick another experiment", e.Name, fl, fl)
			}
		}
	}
	return nil
}

func main() {
	var f benchFlags
	f.register(flag.CommandLine)
	flag.Parse()
	opts := f.options()

	explicit := make(map[string]bool)
	flag.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })

	exps, err := bench.Resolve(f.experimentNames()...)
	if err != nil {
		fatalf("%v", err)
	}
	if err := rejectPinned(exps, explicit); err != nil {
		fmt.Fprintf(os.Stderr, "ampcbench: %v\n", err)
		os.Exit(2)
	}
	stopProfiles, err := prof.Start(f.cpuProfile, f.memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	if f.jsonPath != "" {
		snap, reps, err := bench.RunSnapshot(exps, opts)
		for _, rep := range reps {
			fmt.Println(rep.String())
		}
		if err == nil {
			err = bench.WriteSnapshot(f.jsonPath, snap)
		}
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", f.jsonPath)
	} else {
		for _, e := range exps {
			rep, _, err := e.Run(opts)
			if err != nil {
				fatalf("%s: %v", e.Name, err)
			}
			fmt.Println(rep.String())
		}
	}
	if err := stopProfiles(); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ampcbench: "+format+"\n", args...)
	os.Exit(1)
}
