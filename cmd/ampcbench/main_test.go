package main

import (
	"flag"
	"strings"
	"testing"

	"ampcgraph/internal/bench"
)

// TestSharedFlagSetRegistersUniformly pins the CLI contract: one shared flag
// struct registers every flag once, and the axis flags exist for every
// experiment (no per-experiment dialects).
func TestSharedFlagSetRegistersUniformly(t *testing.T) {
	fs := flag.NewFlagSet("ampcbench", flag.ContinueOnError)
	var f benchFlags
	f.register(fs)
	for _, name := range []string{"experiment", "datasets", "scale", "seed", "machines", "threads", "mpc-threshold", "batch", "placement", "backend", "json"} {
		if fs.Lookup(name) == nil {
			t.Errorf("shared flag set missing -%s", name)
		}
	}
	if err := fs.Parse([]string{"-placement", "owner", "-backend", "disk", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	opts := f.options()
	if opts.Placement != "owner" || opts.Backend != "disk" || opts.Seed != 7 {
		t.Fatalf("options did not carry the shared flags: %+v", opts)
	}
}

// TestRejectPinnedFlags drives flag rejection from the registry: for every
// experiment, an explicit setting of each flag it pins is an error naming
// the flag, and every other shared flag is accepted.
func TestRejectPinnedFlags(t *testing.T) {
	fs := flag.NewFlagSet("ampcbench", flag.ContinueOnError)
	new(benchFlags).register(fs)
	exps, err := bench.Resolve(bench.AllExperiments()...)
	if err != nil {
		t.Fatal(err)
	}
	pinnedSomewhere := false
	for _, e := range exps {
		pins := make(map[string]bool)
		for _, fl := range e.Pins {
			pins[fl] = true
			if fs.Lookup(fl) == nil {
				t.Errorf("experiment %s pins -%s, which is not a registered flag", e.Name, fl)
			}
		}
		fs.VisitAll(func(fl *flag.Flag) {
			err := rejectPinned([]bench.Experiment{e}, map[string]bool{fl.Name: true})
			switch {
			case pins[fl.Name] && (err == nil || !strings.Contains(err.Error(), "-"+fl.Name)):
				t.Errorf("%s + -%s not rejected: %v", e.Name, fl.Name, err)
			case !pins[fl.Name] && err != nil:
				t.Errorf("%s + -%s rejected: %v", e.Name, fl.Name, err)
			}
		})
		pinnedSomewhere = pinnedSomewhere || len(pins) > 0
		// A pinned flag that was not set explicitly never errs.
		if err := rejectPinned([]bench.Experiment{e}, nil); err != nil {
			t.Errorf("%s with no explicit flags rejected: %v", e.Name, err)
		}
	}
	if !pinnedSomewhere {
		t.Error("no experiment pins any flag: the rejection path is untested")
	}
}

// TestExperimentNames pins the -experiment grammar: 'all' expands to the
// registry, anything else is a comma-separated list like -datasets.
func TestExperimentNames(t *testing.T) {
	f := benchFlags{experiment: "all"}
	if got := f.experimentNames(); len(got) != len(bench.AllExperiments()) {
		t.Fatalf("'all' expanded to %v", got)
	}
	f.experiment = "batch,chaos"
	if got := f.experimentNames(); len(got) != 2 || got[0] != "batch" || got[1] != "chaos" {
		t.Fatalf("list expanded to %v", got)
	}
}
