// Command benchcheck holds a fresh run of the gated experiments against the
// committed BENCH_smoke.json.
//
// It re-runs exactly the experiments that have rows in the baseline, with
// the seed, scale, machines and threads recorded there and each experiment's
// pinned smoke datasets, writes the first fresh snapshot next to it, folds
// -runs measurements into one row per metric (bench.MergeBest) and fails when
// any committed gate does not hold (bench.Check): a row missing, outputs no
// longer byte-identical and valid, a metric more than -tolerance below its
// committed value or past its committed floor or ceiling, a failed run, a
// recovery tier that stopped firing.  CI runs it as the bench-regression job
// (`make bench-check`) and uploads the fresh JSON as an artifact, so a PR
// that erodes a gated win fails visibly instead of silently.
//
// Usage:
//
//	benchcheck [-baseline BENCH_smoke.json] [-out BENCH_fresh.json] [-tolerance 0.10] [-runs 2]
package main

import (
	"flag"
	"fmt"
	"os"

	"ampcgraph/internal/bench"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_smoke.json", "committed benchmark snapshot to compare against")
		outPath      = flag.String("out", "BENCH_fresh.json", "where to write the freshly measured snapshot")
		tolerance    = flag.Float64("tolerance", 0.10, "maximum allowed fractional regression of a frac-gated metric (0.10 = 10%)")
		runs         = flag.Int("runs", 2, "measurement runs; each metric keeps its best run, damping scheduler noise")
	)
	flag.Parse()

	baseline, err := bench.ReadSnapshot(*baselinePath)
	if err != nil {
		fatalf("reading baseline: %v", err)
	}
	exps, err := bench.Resolve(baseline.Experiments()...)
	if err != nil {
		fatalf("%s: %v", *baselinePath, err)
	}
	var measured [][]bench.GateRow
	for attempt := 0; attempt < max(*runs, 1); attempt++ {
		fresh, _, err := bench.RunSnapshot(exps, baseline.Options())
		if err != nil {
			fatalf("running smoke benchmark: %v", err)
		}
		if attempt == 0 {
			// The artifact records one representative measurement.
			if err := bench.WriteSnapshot(*outPath, fresh); err != nil {
				fatalf("writing %s: %v", *outPath, err)
			}
			fmt.Printf("wrote %s\n", *outPath)
		}
		measured = append(measured, fresh.Rows)
	}

	lines, failures := bench.Check(baseline.Rows, bench.MergeBest(measured...), *tolerance)
	for _, line := range lines {
		fmt.Println(line)
	}
	if failures > 0 {
		fatalf("%d gate(s) failed against %s", failures, *baselinePath)
	}
	fmt.Println("bench-check: no regression")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}
