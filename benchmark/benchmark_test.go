package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesAndLimits(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not made of [A-Za-z0-9_.-] (at most 64)", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range perLayer {
		check("per-layer", d.Name)
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s [s, lower]")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the root in step with the tables
// the program prints from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.Name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayer)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread 1..10 = %v, want 1", got)
	}
	// statistics.quantiles([9.5, 10, 11, 12, 13], n=4) == [9.75, 11, 12.5]
	if got := quartileSpread([]float64{10, 12, 11, 13, 9.5}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 0.25", got)
	}
	if got := worsening(10, 11, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("worsening lower = %v", got)
	}
	if got := worsening(10, 11, "higher"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("worsening higher = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := span{Start: 0, End: 100 * ms}
	kids := []span{
		{Start: 10 * ms, End: 30 * ms},
		{Start: 20 * ms, End: 40 * ms},                // overlaps the first: the union covers 10..40
		{Start: 90 * ms, End: 120 * ms},               // clipped to the parent's end
		{Start: 0, End: 15 * ms, Counted: true},       // counted by duration only
		{Start: 15 * ms, End: 20 * ms, Counted: true}, // 5 more
	}
	if got, want := selfTime(parent, kids), (100-30-10-20)*ms; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(span{Start: 0, End: ms}, []span{{Start: 0, End: 5 * ms, Counted: true}}); got != 0 {
		t.Errorf("selfTime floors at 0, got %v", got)
	}
}

func TestTraceJSON(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("workload.w", -1, 0, 0)
	job := tr.begin("core.mis", root, 1, 1)
	tr.end(job, map[string]float64{"rounds": 3})
	tr.counted(job, []string{"phase.a", "phase.b"}, []time.Duration{time.Millisecond, 2 * time.Millisecond}, []map[string]float64{nil, {"kv_bytes": 7}})
	tr.begin("left-open", root, 0, 0)
	tr.end(root, nil)
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 { // the open span is dropped
		t.Fatalf("%d events, want 4", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Args["workload"] != "w" {
			t.Errorf("bad event %+v", ev)
		}
	}
	if ev := doc.TraceEvents[3]; ev.Name != "phase.b" || ev.Args["counted"] != true || ev.Args["kv_bytes"] != 7.0 || ev.Args["parent"] != 1.0 || ev.Tid != 1 {
		t.Errorf("counted child %+v", ev)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", -1, 0, 0), nil) // an untraced rep records nothing
}

func tinyOptions(t *testing.T) options {
	return options{
		seed: 1, tiny: true, reps: 2, setupPasses: 1, tmpRoot: t.TempDir(),
		probeBudget: time.Millisecond, log: io.Discard,
	}
}

// TestTinySmoke runs all six workloads at a fiftieth of the inputs, every
// output through its oracle and the reference comparison.
func TestTinySmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			opt := tinyOptions(t)
			res, err := runWorkload(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != opt.reps*len(w.Jobs) {
				t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("%s = %+v", d.Name, v)
				}
			}
			if left, _ := os.ReadDir(opt.tmpRoot); len(left) != 0 {
				t.Errorf("left %d entries behind in the temporary directory", len(left))
			}
		})
	}
}

// TestTinyTraced runs one traced workload with the layer probes and checks
// that every per-layer metric is reported and the trace loads.
func TestTinyTraced(t *testing.T) {
	opt := tinyOptions(t)
	opt.traced, opt.reps = true, 4
	opt.traceOut = filepath.Join(t.TempDir(), "trace.json")
	w, _ := workloadByName("serving_mem")
	res, err := runWorkload(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Errorf("correct=%v, %d metrics, want %d", res.Correct, len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"codec.decode_ns_per_id", "dht.mem.get_ns", "dht.disk.put_ns", "dht.rpc.batchget_ns_per_key", "dht.cache.hit_ns", "ampc.lookup_ns", "ampc.compileplan_cold_us", "core.cc.wall_s", "ampc.job.mis_p50_s", "baseline.mis.wall_s", "gen.build_s.G2", "simtime.rpc_measured_read_rtt_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	raw, err := os.ReadFile(opt.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace: %v, %d events", err, len(doc.TraceEvents))
	}
}
