package rankadj_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
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

				// The plan's two rounds, run by hand, are the whole
				// computation: the KV write and one search round.
				t.Run(name+"/plan", func(t *testing.T) {
					rt := ampc.New(cfg)
					defer rt.Close()
					plan, result, err := p.plan(rt, g)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range plan.Rounds() {
						if err := rt.Run(r); err != nil {
							t.Fatal(err)
						}
					}
					if !slices.Equal(result(), want) {
						t.Fatal("the plan's rounds differ from the greedy reference")
					}
					if rounds := rt.Stats().Rounds; rounds != 2 {
						t.Fatalf("the plan ran %d rounds, want 2", rounds)
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
				// preparation finds the store filled and frozen.
				t.Run(name+"/shared", func(t *testing.T) {
					s := ampc.NewSession(cfg)
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
				})
			}
		}
	}
}

// TestListsTiedKeys: with a key that ties almost every pair (u mod 3) the
// stable key sort under Lists must fall back on the neighbour id exactly as
// the (key, id) comparator it replaced — on hubs longer than any insertion
// cutoff, on short lists, on isolated vertices, with and without keep, on
// every pool shape.
func TestListsTiedKeys(t *testing.T) {
	g := gen.PreferentialAttachment(1500, 5, 3)
	b := graph.NewBuilder(g.NumNodes() + 20)
	g.ForEachEdge(func(u, v graph.NodeID, _ float64) { b.AddEdge(u, v) })
	g = b.Build()
	key := func(_, u graph.NodeID) uint64 { return uint64(u % 3) }
	keeps := map[string]func(v, u graph.NodeID) bool{
		"all":     nil,
		"smaller": func(v, u graph.NodeID) bool { return u < v },
	}
	for name, keep := range keeps {
		want := make([][]graph.NodeID, g.NumNodes())
		for v := range want {
			nv := graph.NodeID(v)
			for _, u := range g.Neighbors(nv) {
				if keep == nil || keep(nv, u) {
					want[v] = append(want[v], u)
				}
			}
			slices.SortFunc(want[v], func(a, b graph.NodeID) int {
				if c := cmp.Compare(key(nv, a), key(nv, b)); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		}
		for _, pool := range [][2]int{{1, 1}, {3, 2}} {
			rt := ampc.New(ampc.Config{Machines: pool[0], Threads: pool[1]})
			lists, err := rankadj.Lists(rt, "tied", g, keep, key)
			rt.Close()
			if err != nil {
				t.Fatal(err)
			}
			for v, l := range lists {
				if !slices.Equal(l.Encoded(), codec.EncodeNodeIDs(want[v])) {
					t.Fatalf("%s, %dx%d: list %d is not the (key, id) order %v", name, pool[0], pool[1], v, want[v])
				}
			}
		}
	}
}

// TestSharedCachesUnderThreads runs both query processes with four threads
// per machine sharing each machine's cache, hubs included so that threads
// race to fill the same vertex and edge entries, single-key and batched.
// The result must be the sequential oracle's and the one-thread run's.
func TestSharedCachesUnderThreads(t *testing.T) {
	const seed = 3
	g := gen.PreferentialAttachment(3000, 4, seed)
	for _, p := range processes {
		want := p.reference(g, seed)
		for _, batch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batch=%v", p.name, batch), func(t *testing.T) {
				one := ampc.Config{Machines: 2, Threads: 1, EnableCache: true, Batch: batch, Seed: seed}
				four := one
				four.Threads = 4
				base, _, err := p.run(g, one, false)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := p.run(g, four, false)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("4 threads: %d of %d vertices marked, oracle %d", got.count(), len(got), want.count())
				}
				if !slices.Equal(got, base) {
					t.Fatal("4 threads differ from 1 thread")
				}
			})
		}
	}
}

// TestTruncatedRunsRepeat: a truncated pass reads only what earlier passes
// published, never what machines of the same pass are writing, so runs on
// the same input and pool count the same reads and writes, price the same
// modeled time and run the same rounds.
//
// Like TestSearchRoundAllocs it runs the HL stand-in, about 20 s under the
// race detector, so -short skips it.
func TestTruncatedRunsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("HL stand-in: skipped under -short")
	}
	d, _ := gen.DatasetByName("HL")
	g := d.Build(1, 1)
	cfg := ampc.Config{Machines: 2, Threads: 1, EnableCache: true, Seed: 1, SpacePerMachine: 16}
	runs := []struct {
		name string
		run  func() (ampc.Stats, error)
	}{
		{"mis", func() (ampc.Stats, error) {
			res, err := mis.RunTruncated(g, cfg)
			if err != nil {
				return ampc.Stats{}, err
			}
			return res.Stats, nil
		}},
		{"matching", func() (ampc.Stats, error) {
			res, err := matching.RunTruncated(g, cfg)
			if err != nil {
				return ampc.Stats{}, err
			}
			return res.Stats, nil
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			var first [4]int64
			for i := 0; i < 4; i++ {
				st, err := r.run()
				if err != nil {
					t.Fatal(err)
				}
				got := [4]int64{st.KVReads, st.KVWrites, int64(st.Sim), int64(st.Rounds)}
				if i == 0 {
					first = got
				} else if got != first {
					t.Fatalf("run %d: reads, writes, sim, rounds = %v; run 0: %v", i, got, first)
				}
			}
		})
	}
}

// TestSearchRoundAllocs guards the round bodies both processes run, plain
// and batched: a warm serving query on the HL stand-in allocates per search
// round and per block, never per vertex.  Such a query makes 0.004–0.15
// allocations per vertex; one object per vertex would move the wall-clock
// benchmark's allocs_per_edge past its bound.
func TestSearchRoundAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("HL stand-in: skipped under -short")
	}
	d, _ := gen.DatasetByName("HL")
	g := d.Build(1, 1)
	for _, p := range processes {
		for _, batch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batch=%v", p.name, batch), func(t *testing.T) {
				s := ampc.NewSession(ampc.Config{Machines: 2, Threads: 1, EnableCache: true, Seed: 1, Batch: batch})
				defer s.Close()
				prep, err := s.NewJob()
				if err != nil {
					t.Fatal(err)
				}
				query, err := p.shared(prep, g)
				prep.Close()
				if err != nil {
					t.Fatal(err)
				}
				// The first, unmeasured query fills the session's caches.
				allocs := testing.AllocsPerRun(1, func() {
					rt, err := s.NewJob()
					if err != nil {
						t.Fatal(err)
					}
					defer rt.Close()
					if _, err := query(rt); err != nil {
						t.Fatal(err)
					}
				})
				if perVertex := allocs / float64(g.NumNodes()); perVertex >= 0.25 {
					t.Fatalf("one query makes %.0f allocations, %.3f per vertex, want below 0.25", allocs, perVertex)
				}
			})
		}
	}
}
