package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Experiment is one registry entry.  Everything that is per experiment — the
// name list, flag rejection, dispatch, the smoke snapshot, what benchcheck
// re-runs — derives from the experiments table.
type Experiment struct {
	// Name is what `ampcbench -experiment` and EXPERIMENTS.md call it.
	Name string
	// Pins lists the shared CLI flags the experiment fixes internally
	// because they are its comparison axis (or pinned in both its arms);
	// cmd/ampcbench rejects an explicit setting instead of ignoring it.
	Pins []string
	// Datasets is the default dataset selection (nil: every Table 2
	// stand-in); Smoke is the selection pinned in the smoke snapshot (nil:
	// the experiment reports no gate rows).
	Datasets, Smoke []string

	run func(Options) (Report, []GateRow, error)
}

// hubs are the hub-heavy web stand-ins: extreme-degree vertices at the front
// of the keyspace overload one machine's range, which is where the
// ownership, pipelining and serving wins live.
var hubs = []string{"CW", "HL"}

// experiments is the registry, in the order the paper presents them; the
// system experiments beyond the paper follow.
var experiments = []Experiment{
	{Name: "table2", run: func(o Options) (Report, []GateRow, error) { rep, err := Table2(o); return rep, nil, err }},
	{Name: "table3", run: ungated(Table3)},
	{Name: "figure3", run: ungated(Figure3)},
	{Name: "figure4", run: ungated(Figure4)},
	{Name: "figure5", run: ungated(Figure5)},
	{Name: "figure6", run: ungated(Figure6)},
	{Name: "figure7", run: ungated(Figure7)},
	{Name: "figure8", run: ungated(Figure8)},
	{Name: "figure9", run: ungated(Figure9)},
	{Name: "table4", run: ungated(Table4)},
	{Name: "cycle", run: ungated(Section56Cycle)},
	{Name: "connectivity", run: ungated(Section57Connectivity)},
	{Name: "batch", Pins: []string{"batch"}, Smoke: []string{"OK", "TW"}, run: gated(BatchComparison, batchGates)},
	{Name: "locality", Pins: []string{"placement"}, Smoke: []string{"OK"}, run: gated(LocalityComparison, localityGates)},
	{Name: "pipeline", Pins: []string{"pipeline"}, Datasets: hubs, Smoke: hubs, run: gated(PipelineComparison, pipelineGates)},
	{Name: "rebalance", Pins: []string{"placement"}, Datasets: hubs, Smoke: hubs, run: gated(RebalanceComparison, rebalanceGates)},
	{Name: "adaptive", Pins: []string{"placement"}, Datasets: hubs, Smoke: hubs, run: gated(AdaptiveComparison, adaptiveGates)},
	{Name: "backend", Pins: []string{"backend"}, Smoke: []string{"OK"}, run: gated(BackendComparison, backendGates)},
	// chaos pins batching on in both arms (hedged batch reads are part of
	// the recovery stack under test); serving pins batching off and
	// pipelining on (the plan cache caches pipelined conflict analyses).
	{Name: "chaos", Pins: []string{"batch"}, Smoke: []string{"OK"}, run: gated(ChaosComparison, chaosGates)},
	{Name: "serving", Pins: []string{"batch", "pipeline"}, Datasets: hubs, Smoke: hubs, run: gated(ServingComparison, servingGates)},
}

// gated adapts a typed comparison and the projection of one of its rows
// onto gate rows to a registry entry (a metric several rows report under one
// key folds into one row); ungated adapts a paper experiment that reports
// no gate rows.
func gated[R any](compare func(Options) ([]R, Report, error), gates func(R) []GateRow) func(Options) (Report, []GateRow, error) {
	return func(o Options) (Report, []GateRow, error) {
		rows, rep, err := compare(o)
		var out []GateRow
		for _, row := range rows {
			out = append(out, gates(row)...)
		}
		return rep, MergeBest(out), err
	}
}

func ungated[R any](compare func(Options) ([]R, Report, error)) func(Options) (Report, []GateRow, error) {
	return gated(compare, func(R) []GateRow { return nil })
}

// AllExperiments lists the registry's names, in registry order.
func AllExperiments() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// Resolve returns the registry entries of the named experiments, in order.
func Resolve(names ...string) ([]Experiment, error) {
	byName := make(map[string]Experiment, len(experiments))
	for _, e := range experiments {
		byName[e.Name] = e
	}
	out := make([]Experiment, len(names))
	for i, name := range names {
		e, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("bench: unknown experiment %s (known: %s)", name, strings.Join(AllExperiments(), ", "))
		}
		out[i] = e
	}
	return out, nil
}

// Run runs the experiment — on its default datasets when opts names none —
// and returns its report and gate rows.
func (e Experiment) Run(opts Options) (Report, []GateRow, error) {
	if len(opts.Datasets) == 0 {
		opts.Datasets = e.Datasets
	}
	rep, rows, err := e.run(opts)
	for i := range rows {
		rows[i].Experiment = e.Name
	}
	return rep, rows, err
}

// smokeOptions returns the options the experiment runs under for the
// snapshot: the caller's, with an unset dataset list pinned to e.Smoke.
func (e Experiment) smokeOptions(opts Options) Options {
	if len(opts.Datasets) == 0 {
		opts.Datasets = e.Smoke
	}
	return opts
}

// Snapshot is the pinned-seed gate-row file BENCH_smoke.json holds: the
// shared run parameters and one GateRow per gated metric.
type Snapshot struct {
	Seed     int64     `json:"seed"`
	Scale    int       `json:"scale"`
	Machines int       `json:"machines"`
	Threads  int       `json:"threads"`
	Rows     []GateRow `json:"rows"`
}

// Options returns the run parameters recorded in the snapshot.
func (s Snapshot) Options() Options {
	return Options{Seed: s.Seed, Scale: s.Scale, Machines: s.Machines, Threads: s.Threads}
}

// Experiments lists the experiments that have rows in the snapshot, in
// first-seen order: what benchcheck re-runs.
func (s Snapshot) Experiments() []string {
	var names []string
	seen := make(map[string]bool)
	for _, r := range s.Rows {
		if !seen[r.Experiment] {
			seen[r.Experiment] = true
			names = append(names, r.Experiment)
		}
	}
	return names
}

// RunSnapshot runs the experiments on their pinned smoke datasets
// (caller-set options, datasets included, are honored) and collects their
// gate rows; the reports come back in the same order.
func RunSnapshot(exps []Experiment, opts Options) (Snapshot, []Report, error) {
	d := opts.withDefaults()
	snap := Snapshot{Seed: d.Seed, Scale: d.Scale, Machines: d.Machines, Threads: d.Threads}
	var reps []Report
	for _, e := range exps {
		rep, rows, err := e.Run(e.smokeOptions(opts))
		if err != nil {
			return snap, reps, fmt.Errorf("%s: %w", e.Name, err)
		}
		reps = append(reps, rep)
		snap.Rows = append(snap.Rows, rows...)
	}
	return snap, reps, nil
}

// WriteSnapshot writes s to path as JSON, one gate row per line so a diff
// of the committed baseline reads metric by metric.
func WriteSnapshot(path string, s Snapshot) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"seed\": %d,\n  \"scale\": %d,\n  \"machines\": %d,\n  \"threads\": %d,\n  \"rows\": [",
		s.Seed, s.Scale, s.Machines, s.Threads)
	for i, r := range s.Rows {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n    %s", line)
	}
	b.WriteString("\n  ]\n}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// ReadSnapshot reads a snapshot written by WriteSnapshot, rejecting a file
// with no rows or with a gate kind Check does not know.
func ReadSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Rows) == 0 {
		return s, fmt.Errorf("%s: no gate rows", path)
	}
	for _, r := range s.Rows {
		switch r.Gate {
		case GateIdentical, GateFrac, GateFloor, GateCeil, GatePositive, GateZero, GateInfo:
		default:
			return s, fmt.Errorf("%s: row %s has unknown gate kind %q", path, r.id(), r.Gate)
		}
	}
	return s, nil
}
