package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	names := AllExperiments()
	if len(names) != 20 {
		t.Fatalf("experiment registry %v, want 20 entries", names)
	}
	seen := make(map[string]bool)
	for _, name := range names {
		if seen[name] {
			t.Errorf("experiment %s registered twice", name)
		}
		seen[name] = true
	}
	if _, err := Resolve("table2", "nope"); err == nil || !strings.Contains(err.Error(), "known: table2, ") {
		t.Fatalf("unknown experiment accepted or not listed: %v", err)
	}
	exps, err := Resolve("table2")
	if err != nil {
		t.Fatal(err)
	}
	rep, rows, err := exps[0].Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 || rows != nil {
		t.Fatalf("table2: %d report rows, gate rows %v; want a report and no gates", len(rep.Rows), rows)
	}
}

// TestSmokeOptions asserts, per registry entry and without executing
// anything, what the snapshot pins: an unset dataset list becomes the
// entry's smoke datasets, caller-set options are honored, and an experiment
// whose default datasets are the hub pair is gated on the same pair.
func TestSmokeOptions(t *testing.T) {
	custom := Options{Datasets: []string{"OK"}, Machines: 4, Seed: 7}
	for _, e := range experiments {
		if got := e.smokeOptions(Options{}).Datasets; !reflect.DeepEqual(got, e.Smoke) {
			t.Errorf("%s: unset datasets pinned to %v, want %v", e.Name, got, e.Smoke)
		}
		if got := e.smokeOptions(custom); !reflect.DeepEqual(got, custom) {
			t.Errorf("%s: caller options not honored: %+v", e.Name, got)
		}
		if e.Datasets != nil && !reflect.DeepEqual(e.Datasets, e.Smoke) {
			t.Errorf("%s: defaults to %v but is gated on %v", e.Name, e.Datasets, e.Smoke)
		}
	}
}

// TestSnapshotJSONRoundTrip round-trips a small synthetic snapshot through
// the BENCH_smoke.json writer and reader, and checks what the reader rejects.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	snap := Snapshot{Seed: 1, Scale: 1, Machines: 8, Threads: 4, Rows: []GateRow{
		identicalGate("batch", "OK/MIS", true),
		fracGate("batch", "OK/MIS", "visit_reduction", 3.4699890869407057),
		ceilGate("chaos", "OK", "overhead_mean_pct", 0.04105243068286396, 0.044052089097356736, 1.173208697974934),
	}}
	path := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	if err := WriteSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Fatalf("round trip lost data:\n%+v\n%+v", back, snap)
	}
	if got := back.Experiments(); !reflect.DeepEqual(got, []string{"batch", "chaos"}) {
		t.Fatalf("snapshot experiments %v", got)
	}
	if got := back.Options(); got.Seed != 1 || got.Machines != 8 || got.Threads != 4 || got.Datasets != nil {
		t.Fatalf("snapshot options %+v", got)
	}

	snap.Rows[1].Gate = "fraction"
	if err := WriteSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); err == nil || !strings.Contains(err.Error(), "unknown gate kind") {
		t.Fatalf("unknown gate kind accepted: %v", err)
	}
	snap.Rows = nil
	if err := WriteSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); err == nil {
		t.Fatal("snapshot without rows accepted")
	}
}

// TestCommittedBaselineMatchesRegistry keeps BENCH_smoke.json and the
// registry in step: the committed file gates exactly the experiments that
// declare smoke datasets, under the default run parameters.
func TestCommittedBaselineMatchesRegistry(t *testing.T) {
	baseline, err := ReadSnapshot(filepath.Join("..", "..", "BENCH_smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	var gated []string
	for _, e := range experiments {
		if e.Smoke != nil {
			gated = append(gated, e.Name)
		}
	}
	got := baseline.Experiments()
	slices.Sort(gated)
	slices.Sort(got)
	if !reflect.DeepEqual(got, gated) {
		t.Errorf("BENCH_smoke.json gates %v, the registry declares %v", got, gated)
	}
	d := Options{}.withDefaults()
	if baseline.Seed != d.Seed || baseline.Scale != d.Scale || baseline.Machines != d.Machines || baseline.Threads != d.Threads {
		t.Errorf("BENCH_smoke.json was not measured under the default parameters: %+v", baseline.Options())
	}
}

// TestExperimentsDocInSync fails when EXPERIMENTS.md and the registry
// disagree on names: one "## name" section per entry, in registry order.
func TestExperimentsDocInSync(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, m := range regexp.MustCompile("(?m)^## `([a-z0-9]+)`").FindAllStringSubmatch(string(doc), -1) {
		sections = append(sections, m[1])
	}
	if !reflect.DeepEqual(sections, AllExperiments()) {
		t.Errorf("EXPERIMENTS.md sections %v\nregistry              %v", sections, AllExperiments())
	}
}

// smokeGatesHold runs the named experiment's smoke (its pinned datasets
// unless opts names some) and asserts that every gate holds against the
// run's own rows: outputs identical and valid, no failed run, every
// must-fire counter positive, each measured mean inside the bound derived
// from its spread.
func smokeGatesHold(t *testing.T, name string, opts Options) []GateRow {
	t.Helper()
	exps, err := Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := RunSnapshot(exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rows) == 0 {
		t.Fatalf("%s reported no gate rows", name)
	}
	if lines, failures := Check(snap.Rows, snap.Rows, 0.10); failures != 0 {
		t.Errorf("%s: %d gate(s) do not hold on the run that produced them:\n%s", name, failures, strings.Join(lines, "\n"))
	}
	return snap.Rows
}

// gateValue returns the (key, metric) row of rows.
func gateValue(t *testing.T, rows []GateRow, key, metric string) GateRow {
	t.Helper()
	for _, r := range rows {
		if r.Key == key && r.Metric == metric {
			return r
		}
	}
	t.Fatalf("no gate row %s %s", key, metric)
	return GateRow{}
}

// TestSmokeGatesHold runs the smoke of every gated experiment that has no
// dedicated smoke test (chaos: TestChaosSmokeGatesHold, serving:
// TestServingSmokeMeetsAcceptance), so each gated experiment's smoke
// configuration runs in exactly one tier-1 test.
func TestSmokeGatesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six smoke experiments at full scale")
	}
	for _, e := range experiments {
		if e.Smoke == nil || e.Name == "chaos" || e.Name == "serving" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) { smokeGatesHold(t, e.Name, Options{}) })
	}
}
