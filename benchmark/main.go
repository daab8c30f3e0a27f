// Command benchmark is the repository's wall-clock benchmark: six workloads,
// end-to-end metrics measured with tracing off, and a traced run that adds
// per-layer probes and a Chrome trace.  See README.md in this directory.
//
//	go run ./benchmark                                  # every workload, untraced
//	go run ./benchmark -workload engine_rpc -seed 2     # one workload
//	go run ./benchmark -trace trace.json                # traced run, per-layer metrics
//	go run ./benchmark -selfcheck                       # A/A: two sets, compared by the bounds
//
// With -workload the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is the timed region of one run (BENCHMARK.json run_seconds).
const defaultSeconds = 8

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print its result as a final JSON line; empty runs all of them, one child process each")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		secs      = flag.Float64("seconds", defaultSeconds, "length of the timed region of a run")
		reps      = flag.Int("reps", 0, "run exactly this many timed reps instead of timing for -seconds")
		trace     = flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; any other value: traced run that also writes the Chrome trace to that file")
		out       = flag.String("out", "", "with no -workload: write every result and the environment to this JSON file")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite as two sets and fail if a metric's second median is worse than the first by more than its bound")
		runs      = flag.Int("runs", 1, "with -selfcheck: runs per workload and set, each with its own seed; from 2 up the quartile spread is checked too")
		scale     = flag.String("scale", "full", "full or tiny (inputs divided by 50, for smoke tests)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if runtime.NumCPU() < maxClients {
		fatal(fmt.Errorf("needs at least %d CPUs, found %d", maxClients, runtime.NumCPU()))
	}
	if *scale != "full" && *scale != "tiny" {
		fatal(fmt.Errorf("unknown -scale %q", *scale))
	}
	runtime.GOMAXPROCS(machines)
	opt := options{
		seed: *seed, tiny: *scale == "tiny", seconds: *secs, reps: *reps,
		setupPasses: 3, tmpRoot: ".bench_tmp", probeBudget: 150 * time.Millisecond, log: os.Stdout,
	}
	if opt.tiny {
		opt.probeBudget = 2 * time.Millisecond
	}
	if *trace != "0" {
		opt.traced = true
		if *trace != "1" {
			opt.traceOut = *trace
		}
	}

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(w, opt)
		os.Remove(opt.tmpRoot) // only succeeds once empty
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	s := suite{exe: exe, opt: opt, trace: *trace}
	if *selfcheck {
		if !s.selfcheck(*runs) {
			os.Exit(1)
		}
		return
	}
	results, ok := s.run(*seed, os.Stdout)
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload is one single-workload run: untraced it measures the end-to-end
// metrics; traced it alternates untraced and traced reps, runs the layer
// probes and reports the per-layer metrics.
func runWorkload(w *workload, opt options) (*result, error) {
	var tr *tracer
	root := -1
	if opt.traced {
		tr = newTracer(w.Name)
		root = tr.begin("workload."+w.Name, -1, 0, 0)
		opt.setupPasses = 1 // set-up time is an end-to-end metric; the traced run needs none
	}
	m, err := measure(w, opt, tr, root)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed}
	e2e := m.endToEndValues()
	m.report(opt, e2e)
	if !opt.traced {
		res.Metrics = fillMetrics(endToEnd, e2e)
		return res, nil
	}
	vals, err := m.perLayerValues(opt, w.Config(opt.seed, ""), tr, root)
	if err != nil {
		return nil, err
	}
	tr.end(root, nil)
	reportLayers(opt.log, m, vals)
	res.Metrics = fillMetrics(perLayer, vals)
	if opt.traceOut != "" {
		f, err := os.Create(opt.traceOut)
		if err != nil {
			return nil, err
		}
		if err := tr.writeChrome(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		fmt.Fprintf(opt.log, "trace: %d spans written to %s (load in chrome://tracing or ui.perfetto.dev)\n", len(tr.spans), opt.traceOut)
	}
	return res, nil
}

// suite runs workloads as child processes of this binary, one per workload, so
// heap state and the peak-RSS high-water mark belong to one workload each.
type suite struct {
	exe   string
	opt   options
	trace string
}

// child runs one workload in a fresh process and parses its final JSON line;
// the child's report goes to log.
func (s suite) child(w string, seed int64, trace string, log io.Writer) (*result, error) {
	scale := "full"
	if s.opt.tiny {
		scale = "tiny"
	}
	args := []string{
		"-workload", w, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(s.opt.seconds, 'g', -1, 64),
		"-reps", strconv.Itoa(s.opt.reps), "-trace", trace, "-scale", scale,
	}
	cmd := exec.Command(s.exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // Run waits for the child to exit
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) > 1 {
		fmt.Fprintln(log, strings.Join(lines[:len(lines)-1], "\n"))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", w, runErr)
		}
		return nil, fmt.Errorf("workload %s: no result line: %w", w, err)
	}
	return &res, nil
}

// run executes every workload untraced and, when a trace was asked for, a
// second time traced (the trace file gets the workload's name appended).  It
// reports whether every job of every workload was correct.
func (s suite) run(seed int64, log io.Writer) (map[string]map[string]*result, bool) {
	results := map[string]map[string]*result{}
	ok := true
	pass := func(kind, trace string) {
		results[kind] = map[string]*result{}
		for _, w := range workloads {
			t := trace
			if t != "0" && t != "1" {
				t = strings.TrimSuffix(t, ".json") + "." + w.Name + ".json"
			}
			res, err := s.child(w.Name, seed, t, log)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				ok = false
				continue
			}
			ok = ok && res.Correct
			results[kind][w.Name] = res
		}
	}
	pass("end_to_end", "0")
	if s.trace != "0" {
		pass("per_layer", s.trace)
	}
	fmt.Fprintf(log, "\n%-16s", "end-to-end")
	for _, d := range endToEnd {
		fmt.Fprintf(log, " %20s", d.Name+"["+d.Unit+"]")
	}
	fmt.Fprintf(log, " %14s\n", "failed/attempted")
	for _, w := range workloads {
		res := results["end_to_end"][w.Name]
		if res == nil {
			continue
		}
		fmt.Fprintf(log, "%-16s", w.Name)
		for _, d := range endToEnd {
			fmt.Fprintf(log, " %20.6g", res.Metrics[d.Name].Value)
		}
		fmt.Fprintf(log, " %8d/%d\n", res.Failed, res.Attempted)
	}
	return results, ok
}

// selfcheck runs the untraced suite as two sets of n runs per workload (run i
// of both sets uses seed+i) and applies the acceptance rule to the benchmark
// itself: the second set's median may not be worse than the first's by more
// than the metric's bound and, from two runs up, the quartile spread of each
// set must stay within the bound (setup_s excepted).
func (s suite) selfcheck(n int) bool {
	ok := true
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < n; i++ {
				res, err := s.child(w.Name, s.opt.seed+int64(i), "0", io.Discard)
				if err != nil || !res.Correct {
					fmt.Printf("%-16s set %c run %d FAILED: %v\n", w.Name, 'A'+set, i, err)
					ok = false
					continue
				}
				for _, d := range endToEnd {
					sets[set][d.Name] = append(sets[set][d.Name], res.Metrics[d.Name].Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			worse := worsening(median(a), median(b), d.Better)
			spread := max(quartileSpread(a), quartileSpread(b))
			verdict := "ok"
			if worse > d.Bound || (d.Name != "setup_s" && spread > d.Bound) {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-16s %-22s A %12.6g  B %12.6g  B worse by %+7.2f%%  spread %6.2f%%  bound %5.1f%%  %s\n",
				w.Name, d.Name, median(a), median(b), 100*worse, 100*spread, 100*d.Bound, verdict)
		}
	}
	return ok
}

// writeResults stores the suite's results with the environment they were
// measured in.
func writeResults(path string, results map[string]map[string]*result) error {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	doc := map[string]any{
		"environment": map[string]any{
			"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"commit": commit, "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		},
		"results": results,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
