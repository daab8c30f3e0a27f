package bench

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/core/connectivity"
	"ampcgraph/internal/core/cycle"
	"ampcgraph/internal/core/matching"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/core/msf"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/seq"
)

// fiveAlgos names the core algorithms in the order every comparison runs
// them: MIS, maximal matching, minimum spanning forest, connectivity and
// 1-vs-2-Cycle.
var fiveAlgos = []string{"MIS", "MM", "MSF", "CC", "CY"}

// inputs is what the five algorithms run on — MIS, MM and CC on g, MSF on
// its degree-proportionally weighted copy, 1-vs-2-Cycle on cycleG (set only
// where "CY" runs) — plus the weighted copy and the internal/seq ground
// truth of those graphs, each computed on first use.
type inputs struct {
	g, cycleG *graph.Graph

	weighted  *graph.Graph   // gen.DegreeProportionalWeights(g)
	msfWeight float64        // weight of seq.KruskalMSF(weighted)
	labels    []graph.NodeID // seq.ConnectedComponents(g)
	cycles    int            // components of cycleG: a union of cycles has one per cycle
}

// msfInput returns the weighted copy of g that MSF runs on.
func (in *inputs) msfInput() *graph.Graph {
	if in.weighted == nil {
		in.weighted = gen.DegreeProportionalWeights(in.g)
	}
	return in.weighted
}

// cycleAnswer is the 1-vs-2-Cycle output.
type cycleAnswer struct {
	SingleCycle bool
	NumCycles   int
}

// outputs holds what the algorithms computed under one configuration; the
// field of an algorithm that was not run (or failed) stays nil.  Stats is
// keyed by algorithm name.
type outputs struct {
	InMIS  []bool
	Mate   []graph.NodeID
	Forest []graph.WeightedEdge
	Labels []graph.NodeID
	Cycle  *cycleAnswer
	Stats  map[string]ampc.Stats
}

// run executes the named algorithms (all five when none is named) under
// cfg.  A failing algorithm does not stop the others: its output stays nil
// and the returned error joins every failure, so a strict caller stops on
// err != nil while the chaos passes count failures and go on.
func (in *inputs) run(cfg ampc.Config, algos ...string) (outputs, error) {
	if len(algos) == 0 {
		algos = fiveAlgos
	}
	out := outputs{Stats: make(map[string]ampc.Stats, len(algos))}
	var errs []error
	for _, a := range algos {
		var err error
		switch a {
		case "MIS":
			var r *mis.Result
			if r, err = mis.Run(in.g, cfg); err == nil {
				out.InMIS, out.Stats[a] = r.InMIS, r.Stats
			}
		case "MM":
			var r *matching.Result
			if r, err = matching.Run(in.g, cfg); err == nil {
				out.Mate, out.Stats[a] = r.Matching.Mate, r.Stats
			}
		case "MSF":
			var r *msf.Result
			if r, err = msf.Run(in.msfInput(), cfg); err == nil {
				out.Forest, out.Stats[a] = r.Edges, r.Stats
			}
		case "CC":
			var r *connectivity.Result
			if r, err = connectivity.Run(in.g, cfg); err == nil {
				out.Labels, out.Stats[a] = r.Components, r.Stats
			}
		case "CY":
			var r *cycle.Result
			if r, err = cycle.Run(in.cycleG, cfg); err == nil {
				out.Cycle, out.Stats[a] = &cycleAnswer{r.SingleCycle, r.NumCycles}, r.Stats
			}
		default:
			err = errors.New("bench: unknown algorithm")
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", a, err))
		}
	}
	return out, errors.Join(errs...)
}

// runValid is run for a reference arm: any failure, or an output that does
// not pass its oracle, is an error.
func (in *inputs) runValid(cfg ampc.Config, algos ...string) (outputs, error) {
	out, err := in.run(cfg, algos...)
	if err == nil {
		err = out.Validate(in)
	}
	return out, err
}

// Equal reports whether every output o holds is byte-identical to ref's.
// Outputs o does not hold are not compared, so one job's single result can
// be checked against a five-algorithm reference.
func (o outputs) Equal(ref outputs) bool {
	return (o.InMIS == nil || reflect.DeepEqual(o.InMIS, ref.InMIS)) &&
		(o.Mate == nil || reflect.DeepEqual(o.Mate, ref.Mate)) &&
		(o.Forest == nil || reflect.DeepEqual(o.Forest, ref.Forest)) &&
		(o.Labels == nil || reflect.DeepEqual(o.Labels, ref.Labels)) &&
		(o.Cycle == nil || reflect.DeepEqual(o.Cycle, ref.Cycle))
}

// Validate checks every output o holds against an independent internal/seq
// oracle on in: the MIS is independent and maximal, the matching is a
// maximal matching, the forest spans every component at Kruskal's weight,
// the labels are the union-find components, and the cycle count is the
// number of components of the cycle input.  Byte-identity against our own
// reference run proves determinism; this proves the outputs right.
func (o outputs) Validate(in *inputs) error {
	if o.InMIS != nil && !(len(o.InMIS) == in.g.NumNodes() &&
		seq.IsIndependentSet(in.g, o.InMIS) && seq.IsMaximalIndependentSet(in.g, o.InMIS)) {
		return errors.New("MIS is not a maximal independent set")
	}
	if o.Mate != nil {
		m := &seq.Matching{Mate: o.Mate}
		if !(len(o.Mate) == in.g.NumNodes() && seq.IsMatching(in.g, m) && seq.IsMaximalMatching(in.g, m)) {
			return errors.New("MM is not a maximal matching")
		}
	}
	if o.Forest != nil {
		if in.msfWeight == 0 {
			in.msfWeight = seq.MSFWeight(seq.KruskalMSF(in.msfInput()))
		}
		if !seq.IsSpanningForest(in.msfInput(), o.Forest) ||
			math.Abs(seq.MSFWeight(o.Forest)-in.msfWeight) > 1e-9*math.Max(1, in.msfWeight) {
			return errors.New("MSF is not a minimum spanning forest")
		}
	}
	if o.Labels != nil {
		if in.labels == nil {
			in.labels = seq.ConnectedComponents(in.g)
		}
		if !reflect.DeepEqual(o.Labels, in.labels) {
			return errors.New("CC labels differ from the union-find components")
		}
	}
	if o.Cycle != nil {
		if in.cycles == 0 {
			for v, rep := range seq.ConnectedComponents(in.cycleG) {
				if rep == graph.NodeID(v) {
					in.cycles++
				}
			}
		}
		if o.Cycle.NumCycles != in.cycles || o.Cycle.SingleCycle != (in.cycles == 1) {
			return fmt.Errorf("CY found %d cycle(s), the input has %d", o.Cycle.NumCycles, in.cycles)
		}
	}
	return nil
}

// Matches is the acceptance property of every comparison, stated once: o is
// byte-identical to the reference and passes the oracles on in.
func (o outputs) Matches(ref outputs, in *inputs) bool {
	return o.Equal(ref) && o.Validate(in) == nil
}

// comparisonPair is one (dataset, algorithm) A/B measurement: the same
// computation under two runtime configurations, with B held against A.
type comparisonPair struct {
	Graph     string
	Algo      string
	Identical bool
	A, B      ampc.Stats
}

// compareConfigs runs MIS, MM and MSF on every dataset of opts under cfgA
// and cfgB, returning one pair per (dataset, algorithm).  A reference (A)
// output that fails its oracle is an error, not a row.
func compareConfigs(opts Options, cfgA, cfgB ampc.Config) ([]comparisonPair, error) {
	var pairs []comparisonPair
	for _, ng := range opts.graphs() {
		in := &inputs{g: ng.g}
		for _, algo := range fiveAlgos[:3] {
			a, err := in.runValid(cfgA, algo)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ng.name, err)
			}
			b, err := in.run(cfgB, algo)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ng.name, err)
			}
			pairs = append(pairs, comparisonPair{
				Graph: ng.name, Algo: algo, Identical: b.Matches(a, in),
				A: a.Stats[algo], B: b.Stats[algo],
			})
		}
	}
	return pairs, nil
}
