package bench

import (
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
)

// allBackends are the storage engines the equivalence suites sweep, each as
// a "backend/placement" subtest so CI can select one engine with
// -run 'TestName/rpc'.
var allBackends = []string{ampc.BackendMem, ampc.BackendDisk, ampc.BackendRPC}

// okInputs is the five-algorithm input set on the OK stand-in for seed, with
// two cycles of cycleLen vertices as the 1-vs-2-Cycle input.
func okInputs(seed int64, cycleLen int) *inputs {
	return &inputs{g: gen.Datasets()[0].Build(1, seed), cycleG: gen.TwoCycles(cycleLen)}
}

// mustRun runs the algorithms under cfg and fails the test on any error.
func mustRun(t *testing.T, in *inputs, cfg ampc.Config, algos ...string) outputs {
	t.Helper()
	out, err := in.run(cfg, algos...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mustMatch asserts the suites' acceptance property (outputs.Matches) with a
// message saying which half failed: got is byte-identical to the reference
// and passes the internal/seq oracles.
func mustMatch(t *testing.T, in *inputs, got, ref outputs, what string) {
	t.Helper()
	if !got.Equal(ref) {
		t.Errorf("%s: output differs from the reference", what)
	}
	if err := got.Validate(in); err != nil {
		t.Errorf("%s: %v", what, err)
	}
}

// TestValidateRejectsCorruptedOutputs exercises the oracle itself: a clean
// five-algorithm run validates, and one flipped value in each output kind is
// rejected — so a suite that reports "valid" has checked something.
func TestValidateRejectsCorruptedOutputs(t *testing.T) {
	in := okInputs(1, 500)
	clean := mustRun(t, in, ampc.Config{Machines: 4, Threads: 2, EnableCache: true, Seed: 1})
	if err := clean.Validate(in); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	if len(clean.Stats) != len(fiveAlgos) {
		t.Fatalf("ran %d algorithms, want %d", len(clean.Stats), len(fiveAlgos))
	}

	matched := 0
	for clean.Mate[matched] == graph.None {
		matched++
	}
	corrupt := map[string]func(o *outputs){
		"MIS vertex flipped": func(o *outputs) {
			o.InMIS = append([]bool(nil), o.InMIS...)
			o.InMIS[0] = !o.InMIS[0]
		},
		"MM mate dropped on one side": func(o *outputs) {
			o.Mate = append([]graph.NodeID(nil), o.Mate...)
			o.Mate[matched] = graph.None
		},
		"MSF edge dropped": func(o *outputs) { o.Forest = o.Forest[1:] },
		"MSF edge reweighted": func(o *outputs) {
			o.Forest = append([]graph.WeightedEdge(nil), o.Forest...)
			o.Forest[0].W++
		},
		"CC label changed": func(o *outputs) {
			o.Labels = append([]graph.NodeID(nil), o.Labels...)
			o.Labels[len(o.Labels)-1]++
		},
		"CY count off by one": func(o *outputs) { o.Cycle = &cycleAnswer{NumCycles: o.Cycle.NumCycles + 1} },
	}
	for name, flip := range corrupt {
		bad := clean
		flip(&bad)
		if err := bad.Validate(in); err == nil {
			t.Errorf("%s: Validate accepted the corrupted output", name)
		}
		if bad.Equal(clean) {
			t.Errorf("%s: Equal did not see the corruption", name)
		}
	}
	if !clean.Equal(clean) || !(outputs{InMIS: clean.InMIS}).Equal(clean) {
		t.Error("Equal rejects identical outputs or a one-algorithm subset of them")
	}
}
