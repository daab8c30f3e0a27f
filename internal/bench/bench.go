// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 5) and runs the system
// experiments built since, and it is what guards their numbers.  Every
// experiment is declared once, as an entry of the registry (registry.go): a
// name, the CLI flags it pins, its datasets, and one function from Options
// to a text Report plus gate rows.  The name list, flag rejection and
// dispatch of cmd/ampcbench, the BENCH_smoke.json snapshot and the set of
// experiments cmd/benchcheck re-runs all derive from that table.  A gated
// experiment reports each metric it wants protected as a GateRow (gate.go) —
// experiment, key, metric, value, std, repeats, direction, gate kind, bound
// — so one MergeBest folds repeated runs (measurements keep their best run,
// must-hold properties their worst) and one Check holds a fresh run against
// the committed rows, whatever the experiment.  Wherever two configurations
// are compared, the five algorithms run through one runner (runner.go:
// inputs -> outputs), which states byte-identity (outputs.Equal) and
// validity against the internal/seq oracles (outputs.Validate) once.
//
// Absolute numbers cannot match the paper (the paper runs on 100 data-center
// machines with an RDMA key-value store; this repository simulates the model
// in one process on synthetic stand-in graphs), so every experiment reports
// the quantities whose *shape* the paper's conclusions rest on: shuffle
// counts, bytes moved, phase breakdowns, relative speedups and scaling
// trends.  EXPERIMENTS.md has one section per registry entry: what it
// reproduces, the datasets it pins, its gates and where each bound came
// from.
package bench

import (
	"fmt"
	"strings"
	"time"

	"ampcgraph/internal/ampc"
	bcc "ampcgraph/internal/baseline/cc"
	bmatching "ampcgraph/internal/baseline/matching"
	bmis "ampcgraph/internal/baseline/mis"
	bmsf "ampcgraph/internal/baseline/msf"
	"ampcgraph/internal/core/connectivity"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/mpc"
	"ampcgraph/internal/simtime"
)

// Options parameterizes an experiment run.
type Options struct {
	// Datasets restricts the experiment to the named Table 2 stand-ins; the
	// default is all of them (OK, TW, FS, CW, HL).
	Datasets []string
	// Scale multiplies the stand-in sizes (default 1).
	Scale int
	// Seed drives all randomness (default 1).
	Seed int64
	// Machines is the number of AMPC machines (default 8).
	Machines int
	// Threads is the number of threads per machine (default 4).
	Threads int
	// MPCThreshold is the in-memory switch-over threshold for the MPC
	// baselines (default: DefaultInMemoryThreshold of each baseline scaled to
	// the stand-ins).
	MPCThreshold int
	// Batch runs the AMPC algorithms with the shard-grouped batch pipeline
	// (ampc.Config.Batch) in every experiment.
	Batch bool
	// Placement selects the shard placement policy (ampc.PlacementHash,
	// ampc.PlacementOwnerAffine or ampc.PlacementWeighted) for the AMPC
	// runs of every experiment.  The "locality", "rebalance" and "adaptive"
	// experiments pin the placements they compare and ignore this field.
	Placement string
	// Pipeline runs the AMPC algorithms with dependency-aware round
	// pipelining (ampc.Config.Pipeline) in every experiment.  The
	// dedicated "pipeline" experiment compares barrier and pipelined
	// schedules directly and ignores this field.
	Pipeline bool
	// Backend selects the shard storage engine (ampc.BackendMem,
	// BackendDisk or BackendRPC) for the AMPC runs of every experiment.
	// The dedicated "backend" experiment compares all three directly and
	// ignores this field.
	Backend string
}

func (o Options) withDefaults() Options {
	if len(o.Datasets) == 0 {
		o.Datasets = gen.DatasetNames()
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Machines <= 0 {
		o.Machines = 8
	}
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.MPCThreshold <= 0 {
		o.MPCThreshold = 2_000
	}
	return o
}

func (o Options) ampcConfig() ampc.Config {
	return ampc.Config{
		Machines:    o.Machines,
		Threads:     o.Threads,
		EnableCache: true,
		Batch:       o.Batch,
		Placement:   o.Placement,
		Pipeline:    o.Pipeline,
		Backend:     o.Backend,
		Seed:        o.Seed,
	}
}

func (o Options) graphs() []namedGraph {
	var out []namedGraph
	for _, name := range o.Datasets {
		d, ok := gen.DatasetByName(name)
		if !ok {
			continue
		}
		out = append(out, namedGraph{name: name, g: d.Build(o.Scale, o.Seed)})
	}
	return out
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// mpcRun runs the MPC dataflow baseline of the named algorithm on in — the
// rootset MIS, MM and MSF baselines, CC-LocalContraction for "CY" — and
// returns its statistics and the number of distributed phases it took.
func (o Options) mpcRun(in *inputs, algo string) (mpc.Stats, int, error) {
	p := mpc.NewPipeline(mpc.Config{Seed: o.Seed})
	switch algo {
	case "MIS":
		r, err := bmis.Run(in.g, p, bmis.Options{InMemoryThreshold: o.MPCThreshold})
		if err != nil {
			return mpc.Stats{}, 0, err
		}
		return r.Stats, r.Phases, nil
	case "MM":
		r, err := bmatching.Run(in.g, p, bmatching.Options{InMemoryThreshold: o.MPCThreshold})
		if err != nil {
			return mpc.Stats{}, 0, err
		}
		return r.Stats, r.Phases, nil
	case "MSF":
		r, err := bmsf.Run(in.msfInput(), p, bmsf.Options{InMemoryThreshold: o.MPCThreshold})
		if err != nil {
			return mpc.Stats{}, 0, err
		}
		return r.Stats, r.Phases, nil
	case "CY":
		r, err := bcc.Run(in.cycleG, p, bcc.Options{InMemoryThreshold: o.MPCThreshold, Relabel: true})
		if err != nil {
			return mpc.Stats{}, 0, err
		}
		return r.Stats, r.Phases, nil
	}
	return mpc.Stats{}, 0, fmt.Errorf("bench: no MPC baseline for %s", algo)
}

// Report is a formatted experiment result.
type Report struct {
	// Title identifies the table or figure being reproduced.
	Title string
	// Header is the column header line.
	Header string
	// Rows are the data lines.
	Rows []string
	// Notes describe how to read the result relative to the paper.
	Notes []string
}

// String renders the report as text.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Title)
	if r.Header != "" {
		fmt.Fprintln(&b, r.Header)
	}
	for _, row := range r.Rows {
		fmt.Fprintln(&b, row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Table2 regenerates the dataset-statistics table (Table 2) for the synthetic
// stand-ins.
func Table2(opts Options) (Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title:  "Table 2: graph inputs (synthetic stand-ins)",
		Header: fmt.Sprintf("%-8s %10s %12s %8s %8s %10s", "graph", "n", "m", "diam>=", "numCC", "largestCC"),
		Notes: []string{
			"stand-ins reproduce the qualitative properties of the paper's datasets (skew, components, diameter) at laptop scale",
		},
	}
	for _, ng := range opts.graphs() {
		s := graph.ComputeStats(ng.g)
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %10d %12d %8d %8d %10d",
			ng.name, s.Nodes, s.Edges, s.ApproxDiameter, s.NumComponents, s.LargestComponent))
	}
	for _, d := range gen.CycleDatasets() {
		g := d.Build(opts.Scale, opts.Seed)
		s := graph.ComputeStats(g)
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %10d %12d %8d %8d %10d",
			d.Name, s.Nodes, s.Edges, s.ApproxDiameter, s.NumComponents, s.LargestComponent))
	}
	return rep, nil
}

// Table3Row is one row of the shuffle-count comparison.
type Table3Row struct {
	Graph       string
	AMPCMIS     int
	AMPCMM      int
	AMPCMSF     int
	MPCMIS      int
	MPCMM       int
	MPCMSF      int
	MPCMISPhase int
	MPCMMPhase  int
	MPCMSFPhase int
}

// Table3 regenerates the number-of-shuffles comparison (Table 3).
func Table3(opts Options) ([]Table3Row, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title:  "Table 3: number of shuffles (costly rounds), AMPC vs MPC",
		Header: fmt.Sprintf("%-8s %9s %9s %9s %9s %9s %9s", "graph", "A-MIS", "A-MM", "A-MSF", "M-MIS", "M-MM", "M-MSF"),
		Notes: []string{
			"paper: AMPC MIS/MM use 1 shuffle, AMPC MSF uses 5; MPC MIS/MM use 8-16 and MPC MSF 33-84",
		},
	}
	var rows []Table3Row
	for _, ng := range opts.graphs() {
		in := &inputs{g: ng.g}
		a, err := in.run(opts.ampcConfig(), "MIS", "MM", "MSF")
		if err != nil {
			return nil, rep, err
		}
		row := Table3Row{
			Graph:   ng.name,
			AMPCMIS: a.Stats["MIS"].Shuffles,
			AMPCMM:  a.Stats["MM"].Shuffles,
			AMPCMSF: a.Stats["MSF"].Shuffles,
		}
		var mMIS, mMM, mMSF mpc.Stats
		if mMIS, row.MPCMISPhase, err = opts.mpcRun(in, "MIS"); err != nil {
			return nil, rep, err
		}
		if mMM, row.MPCMMPhase, err = opts.mpcRun(in, "MM"); err != nil {
			return nil, rep, err
		}
		if mMSF, row.MPCMSFPhase, err = opts.mpcRun(in, "MSF"); err != nil {
			return nil, rep, err
		}
		row.MPCMIS, row.MPCMM, row.MPCMSF = mMIS.Shuffles, mMM.Shuffles, mMSF.Shuffles
		rows = append(rows, row)
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %9d %9d %9d %9d %9d %9d",
			row.Graph, row.AMPCMIS, row.AMPCMM, row.AMPCMSF, row.MPCMIS, row.MPCMM, row.MPCMSF))
	}
	return rows, rep, nil
}

// Figure3Row is one bar group of the shuffle-bytes comparison for MIS.
type Figure3Row struct {
	Graph        string
	AMPCShuffle  int64
	AMPCKVBytes  int64
	MPCShuffle   int64
	MPCOverAMPC  float64
	KVOverAMPCSh float64
}

// Figure3 regenerates the bytes-shuffled comparison for MIS (Figure 3).
func Figure3(opts Options) ([]Figure3Row, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title:  "Figure 3: normalized bytes shuffled (MIS) and AMPC key-value communication",
		Header: fmt.Sprintf("%-8s %15s %15s %15s %10s", "graph", "AMPC-shuffle", "AMPC-KV", "MPC-shuffle", "MPC/AMPC"),
		Notes: []string{
			"paper: the MPC baseline shuffles several times more bytes than the AMPC algorithm; AMPC KV communication is comparable to or below the MPC shuffle volume",
		},
	}
	var rows []Figure3Row
	for _, ng := range opts.graphs() {
		in := &inputs{g: ng.g}
		a, err := in.run(opts.ampcConfig(), "MIS")
		if err != nil {
			return nil, rep, err
		}
		m, _, err := opts.mpcRun(in, "MIS")
		if err != nil {
			return nil, rep, err
		}
		row := Figure3Row{
			Graph:       ng.name,
			AMPCShuffle: a.Stats["MIS"].ShuffleBytes,
			AMPCKVBytes: a.Stats["MIS"].KVBytesTotal,
			MPCShuffle:  m.ShuffleBytes,
		}
		if row.AMPCShuffle > 0 {
			row.MPCOverAMPC = float64(row.MPCShuffle) / float64(row.AMPCShuffle)
			row.KVOverAMPCSh = float64(row.AMPCKVBytes) / float64(row.AMPCShuffle)
		}
		rows = append(rows, row)
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %15d %15d %15d %9.2fx",
			row.Graph, row.AMPCShuffle, row.AMPCKVBytes, row.MPCShuffle, row.MPCOverAMPC))
	}
	return rows, rep, nil
}

// Figure4Row is one dataset of the optimization ablation.
type Figure4Row struct {
	Graph        string
	Unoptimized  time.Duration
	OnlyCaching  time.Duration
	OnlyThreads  time.Duration
	Both         time.Duration
	KVBytesNoOpt int64
	KVBytesCache int64
}

// Figure4 regenerates the caching / multithreading ablation for AMPC MIS
// (Figure 4).  Durations are modeled (simulated) time, which is what exposes
// the latency-hiding effect of multithreading in a single-process simulation.
func Figure4(opts Options) ([]Figure4Row, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title:  "Figure 4: effect of caching and multithreading on AMPC MIS (modeled time)",
		Header: fmt.Sprintf("%-8s %14s %14s %14s %14s", "graph", "unoptimized", "only-cache", "only-threads", "both"),
		Notes: []string{
			"paper: both optimizations help, the fastest configuration uses both; caching also cuts key-value bytes by 2-12x",
		},
	}
	var rows []Figure4Row
	variants := []struct {
		name    string
		cache   bool
		threads int
	}{
		{"unoptimized", false, 1},
		{"only-cache", true, 1},
		{"only-threads", false, 8},
		{"both", true, 8},
	}
	for _, ng := range opts.graphs() {
		row := Figure4Row{Graph: ng.name}
		for _, v := range variants {
			cfg := ampc.Config{Machines: opts.Machines, Threads: v.threads, EnableCache: v.cache, Seed: opts.Seed}
			res, err := mis.Run(ng.g, cfg)
			if err != nil {
				return nil, rep, err
			}
			switch v.name {
			case "unoptimized":
				row.Unoptimized = res.Stats.Sim
				row.KVBytesNoOpt = res.Stats.KVBytesTotal
			case "only-cache":
				row.OnlyCaching = res.Stats.Sim
				row.KVBytesCache = res.Stats.KVBytesTotal
			case "only-threads":
				row.OnlyThreads = res.Stats.Sim
			case "both":
				row.Both = res.Stats.Sim
			}
		}
		rows = append(rows, row)
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %14s %14s %14s %14s",
			row.Graph, row.Unoptimized.Round(time.Millisecond), row.OnlyCaching.Round(time.Millisecond),
			row.OnlyThreads.Round(time.Millisecond), row.Both.Round(time.Millisecond)))
	}
	return rows, rep, nil
}

// RuntimeRow is one dataset of an AMPC-vs-MPC running time comparison with a
// phase breakdown (Figures 5, 6 and 7).
type RuntimeRow struct {
	Graph      string
	AMPCWall   time.Duration
	AMPCSim    time.Duration
	MPCWall    time.Duration
	MPCSim     time.Duration
	SpeedupSim float64
	Breakdown  map[string]time.Duration
}

func runtimeReport(title, note string, rows []RuntimeRow) Report {
	rep := Report{
		Title:  title,
		Header: fmt.Sprintf("%-8s %14s %14s %14s %14s %9s", "graph", "AMPC-wall", "AMPC-model", "MPC-wall", "MPC-model", "speedup"),
		Notes:  []string{note},
	}
	for _, row := range rows {
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %14s %14s %14s %14s %8.2fx",
			row.Graph, row.AMPCWall.Round(time.Millisecond), row.AMPCSim.Round(time.Millisecond),
			row.MPCWall.Round(time.Millisecond), row.MPCSim.Round(time.Millisecond), row.SpeedupSim))
	}
	return rep
}

func phaseBreakdown(phases []ampc.PhaseStat) map[string]time.Duration {
	out := make(map[string]time.Duration, len(phases))
	for _, ph := range phases {
		out[ph.Name] += ph.Sim
	}
	return out
}

// runtimeFigure runs algo under the experiment's AMPC configuration and as
// its MPC baseline on every dataset, timing both sides.
func runtimeFigure(opts Options, algo, title, note string) ([]RuntimeRow, Report, error) {
	opts = opts.withDefaults()
	var rows []RuntimeRow
	for _, ng := range opts.graphs() {
		in := &inputs{g: ng.g}
		aStart := time.Now()
		a, err := in.run(opts.ampcConfig(), algo)
		if err != nil {
			return nil, Report{}, err
		}
		aWall := time.Since(aStart)
		mStart := time.Now()
		m, _, err := opts.mpcRun(in, algo)
		if err != nil {
			return nil, Report{}, err
		}
		mWall := time.Since(mStart)
		aStats := a.Stats[algo]
		row := RuntimeRow{
			Graph: ng.name, AMPCWall: aWall, AMPCSim: aStats.Sim,
			MPCWall: mWall, MPCSim: m.Sim,
			Breakdown: phaseBreakdown(aStats.Phases),
		}
		if aStats.Sim > 0 {
			row.SpeedupSim = float64(m.Sim) / float64(aStats.Sim)
		}
		rows = append(rows, row)
	}
	return rows, runtimeReport(title, note, rows), nil
}

// Figure5 regenerates the MIS running-time comparison (Figure 5).
func Figure5(opts Options) ([]RuntimeRow, Report, error) {
	return runtimeFigure(opts, "MIS", "Figure 5: MIS running time, AMPC vs MPC",
		"paper: AMPC MIS is 2.31-3.18x faster than the rootset MPC baseline")
}

// Figure6 regenerates the maximal matching running-time comparison (Figure 6).
func Figure6(opts Options) ([]RuntimeRow, Report, error) {
	return runtimeFigure(opts, "MM", "Figure 6: Maximal Matching running time, AMPC vs MPC",
		"paper: AMPC MM is 1.16-1.72x faster than the rootset MPC baseline (smaller margin than MIS)")
}

// Figure7 regenerates the MSF running-time comparison (Figure 7).
func Figure7(opts Options) ([]RuntimeRow, Report, error) {
	return runtimeFigure(opts, "MSF", "Figure 7: Minimum Spanning Forest running time, AMPC vs MPC",
		"paper: AMPC MSF is 2.6-7.19x faster; graph contraction dominates both implementations")
}

// Figure8Row is one (dataset, machines) point of the self-speedup experiment.
type Figure8Row struct {
	Graph    string
	Machines int
	Sim      time.Duration
	Speedup  float64
}

// Figure8 regenerates the self-speedup experiment (Figure 8): AMPC MIS run on
// an increasing number of machines.  Speedups are measured on modeled time,
// where the per-round cost is the load of the slowest machine.
func Figure8(opts Options) ([]Figure8Row, Report, error) {
	opts = opts.withDefaults()
	machineCounts := []int{1, 2, 4, 8, 16, 32, 64, 100}
	rep := Report{
		Title:  "Figure 8: self-speedup of AMPC MIS (modeled time)",
		Header: fmt.Sprintf("%-8s %9s %14s %9s", "graph", "machines", "model-time", "speedup"),
		Notes: []string{
			"paper: 100-machine runs are 1.64-7.76x faster than 1-machine runs, with better scaling on larger graphs",
			"caching is disabled here so the experiment measures how the search work itself spreads across machines",
		},
	}
	// The fixed per-shuffle and per-round overheads only amortize on inputs
	// that give every machine real work, exactly as in the paper (whose
	// smallest graph already has 234M edges).  Scale the stand-ins up for
	// this experiment so the scaling trend is visible.
	scaled := opts
	if scaled.Scale < 4 {
		scaled.Scale = 4
	}
	var rows []Figure8Row
	for _, ng := range scaled.graphs() {
		var base time.Duration
		for _, m := range machineCounts {
			cfg := ampc.Config{Machines: m, Threads: opts.Threads, EnableCache: false, Seed: opts.Seed}
			res, err := mis.Run(ng.g, cfg)
			if err != nil {
				return nil, rep, err
			}
			if m == 1 {
				base = res.Stats.Sim
			}
			row := Figure8Row{Graph: ng.name, Machines: m, Sim: res.Stats.Sim}
			if res.Stats.Sim > 0 && base > 0 {
				row.Speedup = float64(base) / float64(res.Stats.Sim)
			}
			rows = append(rows, row)
			rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %9d %14s %8.2fx", row.Graph, row.Machines, row.Sim.Round(time.Millisecond), row.Speedup))
		}
	}
	return rows, rep, nil
}

// Figure9Row is one (dataset, algorithm) point of the key-value communication
// plot.
type Figure9Row struct {
	Graph     string
	Algorithm string
	Edges     int64
	KVBytes   int64
}

// Figure9 regenerates the total key-value communication plot (Figure 9).
func Figure9(opts Options) ([]Figure9Row, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title:  "Figure 9: total bytes of communication to the key-value store",
		Header: fmt.Sprintf("%-8s %-6s %12s %15s", "graph", "algo", "edges", "KV-bytes"),
		Notes: []string{
			"paper: communication grows linearly with the number of edges for MIS, MM and MSF",
		},
	}
	var rows []Figure9Row
	for _, ng := range opts.graphs() {
		a, err := (&inputs{g: ng.g}).run(opts.ampcConfig(), "MIS", "MM", "MSF")
		if err != nil {
			return nil, rep, err
		}
		for _, algo := range fiveAlgos[:3] {
			row := Figure9Row{Graph: ng.name, Algorithm: algo, Edges: ng.g.NumEdges(), KVBytes: a.Stats[algo].KVBytesTotal}
			rows = append(rows, row)
			rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %-6s %12d %15d", row.Graph, row.Algorithm, row.Edges, row.KVBytes))
		}
	}
	return rows, rep, nil
}

// Table4Row is one input of the transport-latency comparison.
type Table4Row struct {
	Problem string
	Input   string
	RDMA    time.Duration
	TCP     time.Duration
	MPC     time.Duration
	TCPNorm float64
	MPCNorm float64
}

// Table4 regenerates the RDMA vs TCP/IP vs MPC comparison (Table 4) for the
// 1-vs-2-Cycle and MIS problems, using the latency cost models.
func Table4(opts Options) ([]Table4Row, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title:  "Table 4: normalized modeled time, RDMA vs TCP/IP vs MPC",
		Header: fmt.Sprintf("%-8s %-10s %12s %12s %12s %8s %8s", "problem", "input", "rdma", "tcp", "mpc", "tcp/rdma", "mpc/rdma"),
		Notes: []string{
			"paper: TCP/IP is 1.5-5.9x slower than RDMA but still beats the MPC baseline; the gap is larger for 1-vs-2-Cycle than for MIS",
		},
	}
	var rows []Table4Row
	// addRow models algo on in under both transports and as its MPC baseline.
	addRow := func(problem, input, algo string, in *inputs) error {
		var sims [2]time.Duration
		for i, model := range []simtime.CostModel{simtime.RDMA(), simtime.TCP()} {
			cfg := opts.ampcConfig()
			cfg.Model = model
			out, err := in.run(cfg, algo)
			if err != nil {
				return err
			}
			sims[i] = out.Stats[algo].Sim
		}
		m, _, err := opts.mpcRun(in, algo)
		if err != nil {
			return err
		}
		row := Table4Row{Problem: problem, Input: input, RDMA: sims[0], TCP: sims[1], MPC: m.Sim}
		if row.RDMA > 0 {
			row.TCPNorm = float64(row.TCP) / float64(row.RDMA)
			row.MPCNorm = float64(row.MPC) / float64(row.RDMA)
		}
		rows = append(rows, row)
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %-10s %12s %12s %12s %7.2fx %7.2fx",
			row.Problem, row.Input, row.RDMA.Round(time.Millisecond), row.TCP.Round(time.Millisecond),
			row.MPC.Round(time.Millisecond), row.TCPNorm, row.MPCNorm))
		return nil
	}
	// 1-vs-2-Cycle family, then MIS on the real-graph stand-ins.
	for _, d := range gen.CycleDatasets() {
		if err := addRow("2-Cyc", d.Name, "CY", &inputs{cycleG: d.Build(opts.Scale, opts.Seed)}); err != nil {
			return nil, rep, err
		}
	}
	for _, ng := range opts.graphs() {
		if err := addRow("MIS", ng.name, "MIS", &inputs{g: ng.g}); err != nil {
			return nil, rep, err
		}
	}
	return rows, rep, nil
}

// CycleRow is one input of the 1-vs-2-Cycle comparison (Section 5.6).
type CycleRow struct {
	Input        string
	AMPCSim      time.Duration
	MPCSim       time.Duration
	AMPCShuffles int
	MPCShuffles  int
	MPCPhases    int
	Speedup      float64
}

// Section56Cycle regenerates the 1-vs-2-Cycle comparison of Section 5.6.
func Section56Cycle(opts Options) ([]CycleRow, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title:  "Section 5.6: 1-vs-2-Cycle, AMPC vs CC-LocalContraction",
		Header: fmt.Sprintf("%-10s %14s %14s %9s %9s %9s", "input", "AMPC-model", "MPC-model", "A-shuf", "M-shuf", "speedup"),
		Notes: []string{
			"paper: AMPC is 3.40-9.87x faster, with the speedup growing with the cycle length; MPC needs 4-9 contraction iterations (12-27 shuffles)",
		},
	}
	var rows []CycleRow
	for _, d := range gen.CycleDatasets() {
		in := &inputs{cycleG: d.Build(opts.Scale, opts.Seed)}
		out, err := in.run(opts.ampcConfig(), "CY")
		if err != nil {
			return nil, rep, err
		}
		a := out.Stats["CY"]
		m, phases, err := opts.mpcRun(in, "CY")
		if err != nil {
			return nil, rep, err
		}
		row := CycleRow{
			Input: d.Name, AMPCSim: a.Sim, MPCSim: m.Sim,
			AMPCShuffles: a.Shuffles, MPCShuffles: m.Shuffles, MPCPhases: phases,
		}
		if a.Sim > 0 {
			row.Speedup = float64(m.Sim) / float64(a.Sim)
		}
		rows = append(rows, row)
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-10s %14s %14s %9d %9d %8.2fx",
			row.Input, row.AMPCSim.Round(time.Millisecond), row.MPCSim.Round(time.Millisecond),
			row.AMPCShuffles, row.MPCShuffles, row.Speedup))
	}
	return rows, rep, nil
}

// Section57Row is one dataset of the connectivity discussion experiment.
type Section57Row struct {
	Graph            string
	ContractShare    float64
	NumComponents    int
	TotalSim         time.Duration
	ContractPhaseSim time.Duration
}

// Section57Connectivity reproduces the observation of Section 5.7 that graph
// contraction dominates the connectivity-via-MSF pipeline.
func Section57Connectivity(opts Options) ([]Section57Row, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title:  "Section 5.7: connectivity via random-weight MSF (contraction share of modeled time)",
		Header: fmt.Sprintf("%-8s %8s %14s %14s %10s", "graph", "numCC", "total-model", "contract", "share"),
		Notes: []string{
			"paper: contracting the initial graph takes about 2/3 of the overall running time, which is why connectivity does not beat the best MPC baseline",
		},
	}
	var rows []Section57Row
	for _, ng := range opts.graphs() {
		res, err := connectivity.Run(ng.g, opts.ampcConfig())
		if err != nil {
			return nil, rep, err
		}
		var contract time.Duration
		for _, ph := range res.Stats.Phases {
			if strings.HasPrefix(ph.Name, "Contract") || strings.HasPrefix(ph.Name, "FinishMSF") || strings.HasPrefix(ph.Name, "PointerJump") {
				contract += ph.Sim
			}
		}
		row := Section57Row{
			Graph:            ng.name,
			NumComponents:    res.NumComponents,
			TotalSim:         res.Stats.Sim,
			ContractPhaseSim: contract,
		}
		if res.Stats.Sim > 0 {
			row.ContractShare = float64(contract) / float64(res.Stats.Sim)
		}
		rows = append(rows, row)
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %8d %14s %14s %9.1f%%",
			row.Graph, row.NumComponents, row.TotalSim.Round(time.Millisecond),
			row.ContractPhaseSim.Round(time.Millisecond), 100*row.ContractShare))
	}
	return rows, rep, nil
}
