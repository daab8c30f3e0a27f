package rankadj_test

import (
	"fmt"
	"slices"
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/core/matching"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/core/rankadj"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
	"ampcgraph/internal/seq"
)

// marks is a process's result in one form for both: the mate of a matched
// vertex, 1 for a vertex of the independent set, graph.None otherwise.  An
// unresolved vertex reads graph.None too, so a partial result can only be
// compared by what it has marked so far.
type marks []graph.NodeID

func misMarks(in []bool) marks {
	m := make(marks, len(in))
	for v, b := range in {
		m[v] = graph.None
		if b {
			m[v] = 1
		}
	}
	return m
}

func (m marks) count() int {
	c := 0
	for _, x := range m {
		if x != graph.None {
			c++
		}
	}
	return c
}

// process drives one of the two query processes through its package's
// exported wrappers, which is all mis and matching add to rankadj.Process.
type process struct {
	name        string
	sharedStore string
	reference   func(g *graph.Graph, seed int64) marks
	plan        func(rt *ampc.Job, g *graph.Graph) (*rankadj.Plan, func() marks, error)
	run         func(g *graph.Graph, cfg ampc.Config, truncated bool) (marks, int, error)
	shared      func(rt *ampc.Job, g *graph.Graph) (func(*ampc.Job) (marks, error), error)
}

var processes = []process{
	{
		name:        "mis",
		sharedStore: "mis-directed-graph",
		reference: func(g *graph.Graph, seed int64) marks {
			return misMarks(seq.GreedyMIS(g, rng.VertexPriorities(seed, g.NumNodes())))
		},
		plan: func(rt *ampc.Job, g *graph.Graph) (*rankadj.Plan, func() marks, error) {
			p, err := mis.NewPlan(rt, g)
			if err != nil {
				return nil, nil, err
			}
			return &p.Plan, func() marks { return misMarks(p.InMIS) }, nil
		},
		run: func(g *graph.Graph, cfg ampc.Config, truncated bool) (marks, int, error) {
			run := mis.Run
			if truncated {
				run = mis.RunTruncated
			}
			res, err := run(g, cfg)
			if err != nil {
				return nil, 0, err
			}
			return misMarks(res.InMIS), res.SearchRounds, nil
		},
		shared: func(rt *ampc.Job, g *graph.Graph) (func(*ampc.Job) (marks, error), error) {
			sh, err := mis.NewShared(rt, g)
			return func(rt *ampc.Job) (marks, error) {
				res, err := sh.Run(rt)
				if err != nil {
					return nil, err
				}
				return misMarks(res.InMIS), nil
			}, err
		},
	},
	{
		name:        "matching",
		sharedStore: "mm-edge-sorted-graph",
		reference: func(g *graph.Graph, seed int64) marks {
			return seq.GreedyMaximalMatching(g, matching.UniformEdgeRank(seed)).Mate
		},
		plan: func(rt *ampc.Job, g *graph.Graph) (*rankadj.Plan, func() marks, error) {
			p, err := matching.NewPlan(rt, g)
			if err != nil {
				return nil, nil, err
			}
			return &p.Plan, func() marks { return slices.Clone(p.Matching.Mate) }, nil
		},
		run: func(g *graph.Graph, cfg ampc.Config, truncated bool) (marks, int, error) {
			run := matching.Run
			if truncated {
				run = matching.RunTruncated
			}
			res, err := run(g, cfg)
			if err != nil {
				return nil, 0, err
			}
			return res.Matching.Mate, res.SearchRounds, nil
		},
		shared: func(rt *ampc.Job, g *graph.Graph) (func(*ampc.Job) (marks, error), error) {
			sh, err := matching.NewShared(rt, g)
			return func(rt *ampc.Job) (marks, error) {
				res, err := sh.Run(rt)
				if err != nil {
					return nil, err
				}
				return res.Matching.Mate, nil
			}, err
		},
	},
}

func phaseNames(st ampc.Stats) []string {
	var names []string
	for _, p := range st.Phases {
		names = append(names, p.Name)
	}
	return names
}

// TestProcessDriver runs both query processes through every path of the one
// driver — the per-vertex rounds and the block rounds, under hash and
// degree-weighted placement — against the internal/seq greedy reference.
func TestProcessDriver(t *testing.T) {
	const seed = 7
	g := gen.PreferentialAttachment(1200, 4, seed)
	for _, p := range processes {
		want := p.reference(g, seed)
		for _, batch := range []bool{false, true} {
			for _, placement := range []string{ampc.PlacementHash, ampc.PlacementWeighted} {
				cfg := ampc.Config{Machines: 4, Threads: 2, EnableCache: true, Seed: seed,
					Batch: batch, BatchSize: 64, Placement: placement}
				name := fmt.Sprintf("%s/batch=%v/%s", p.name, batch, placement)

				// The local stage resolves the searches that stay inside their
				// machine's key range and leaves the rest to the spill stage.
				t.Run(name+"/local-then-spill", func(t *testing.T) {
					rt := ampc.New(cfg)
					defer rt.Close()
					plan, result, err := p.plan(rt, g)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range []ampc.Round{plan.Write, plan.Search} {
						if err := rt.Run(r); err != nil {
							t.Fatal(err)
						}
					}
					local := result()
					for v, m := range local {
						if m != graph.None && m != want[v] {
							t.Fatalf("local stage marked vertex %d with %d, reference %d", v, m, want[v])
						}
					}
					if got, all := local.count(), want.count(); got == 0 || got >= all {
						t.Fatalf("local stage marked %d of %d vertices: want some resolved and some escaped", got, all)
					}
					reads := rt.Stats().KVReads
					if err := rt.Run(plan.Spill); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(result(), want) {
						t.Fatal("local + spill stages differ from the greedy reference")
					}
					if rt.Stats().KVReads == reads {
						t.Fatal("spill stage read nothing")
					}
				})

				t.Run(name+"/staged", func(t *testing.T) {
					got, rounds, err := p.run(g, cfg, false)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) || rounds != 1 {
						t.Fatalf("staged run differs from the greedy reference (search rounds %d)", rounds)
					}
				})

				t.Run(name+"/truncated", func(t *testing.T) {
					tiny := cfg
					tiny.SpacePerMachine = 4
					got, rounds, err := p.run(g, tiny, true)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatal("truncated run differs from the greedy reference")
					}
					if rounds < 2 {
						t.Fatalf("a budget of 4 fetches finished in %d pass", rounds)
					}
				})

				// Two preparations and two queries on one session: the second
				// preparation finds the store filled and frozen, the second
				// query finds its plan compiled (plans are cached under Pipeline).
				t.Run(name+"/shared", func(t *testing.T) {
					piped := cfg
					piped.Pipeline = true
					s := ampc.NewSession(piped)
					defer s.Close()
					for i := 0; i < 2; i++ {
						rt, err := s.NewJob()
						if err != nil {
							t.Fatal(err)
						}
						query, err := p.shared(rt, g)
						if err != nil {
							t.Fatal(err)
						}
						prepared := rt.Stats()
						if wrote := slices.Contains(phaseNames(prepared), "KV-Write"); wrote != (i == 0) {
							t.Fatalf("preparation %d: phases %v", i, phaseNames(prepared))
						}
						// Get-or-create: a store the preparation had not made
						// would come back fresh, and so unfrozen.
						store, err := s.OpenSharedStore(p.sharedStore)
						if err != nil || !store.Frozen() {
							t.Fatalf("preparation %d: shared store %q not resident and frozen (err %v)", i, p.sharedStore, err)
						}
						got, err := query(rt)
						rt.Close()
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("query %d differs from the greedy reference", i)
						}
					}
					if pc := s.PlanCacheStats(); pc.Misses != 1 || pc.Hits != 1 {
						t.Fatalf("plan cache %+v, want one miss then one hit", pc)
					}
				})
			}
		}
	}
}
