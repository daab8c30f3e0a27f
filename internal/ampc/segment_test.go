package ampc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ampcgraph/internal/dht"
)

// Segment executor tests: every entry point is a way of cutting a round
// sequence into segments for the one executor, so they must agree on the
// stores' contents always and, when the cut is the same, on the accounting.

// segmentSequence builds a write -> ranged read -> whole read sequence on
// fresh stores of rt: round 0 fills a, round 1 has every machine read its own
// keys of a (declared per owned range) into b, round 2 reads a at its own and
// at a foreign key into c.  With flaky set, one item of the ranged read fails
// on its first execution.
func segmentSequence(t *testing.T, rt *Job, n int, flaky bool) ([]StagedRound, []*dht.Store) {
	a, b, c := newStore(t, rt, "a"), newStore(t, rt, "b"), newStore(t, rt, "c")
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	lookup := func(ctx *Ctx, key int) (uint64, error) {
		v, ok, err := ctx.Lookup(uint64(key))
		if err != nil || !ok {
			return 0, fmt.Errorf("key %d: ok=%v err=%v", key, ok, err)
		}
		return binary.LittleEndian.Uint64(v), nil
	}
	var tripped atomic.Bool
	owned := rt.OwnedRanges(n)
	return []StagedRound{
		{Phase: "write", Round: rt.WriteTableRound("write", a, n, 1, func(i int) []byte { return u64(uint64(i) * 3) })},
		{Phase: "ranged", Round: Round{
			Name:        "ranged",
			Items:       n,
			Read:        a,
			Reads:       []Access{RangedBy(a, owned)},
			Writes:      []Access{RangedBy(b, owned)},
			Partitioner: rt.OwnerPartitioner(n),
			Body: func(ctx *Ctx, item int) error {
				if flaky && item == n/3 && tripped.CompareAndSwap(false, true) {
					return errors.New("injected")
				}
				v, err := lookup(ctx, item)
				if err != nil {
					return err
				}
				return ctx.Write(b, uint64(item), u64(v+1))
			},
		}},
		{Phase: "whole", Round: Round{
			Name:        "whole",
			Items:       n,
			Read:        a,
			Writes:      []Access{RangedBy(c, owned)},
			Partitioner: rt.OwnerPartitioner(n),
			Body: func(ctx *Ctx, item int) error {
				own, err := lookup(ctx, item)
				if err != nil {
					return err
				}
				far, err := lookup(ctx, (item+n/2)%n)
				if err != nil {
					return err
				}
				return ctx.Write(c, uint64(item), u64(own+far))
			},
		}},
	}, []*dht.Store{a, b, c}
}

func TestEntryPointsShareOneExecutor(t *testing.T) {
	const n = 96
	entries := []struct {
		name string
		// phased entry points run their stages under the stages' phases.
		phased bool
		run    func(rt *Job, stages []StagedRound) error
	}{
		{"Run", true, func(rt *Job, stages []StagedRound) error {
			for _, st := range stages {
				if err := rt.Phase(st.Phase, func() error { return rt.Run(st.Round) }); err != nil {
					return err
				}
			}
			return nil
		}},
		{"RunPipeline", false, func(rt *Job, stages []StagedRound) error {
			rounds := make([]Round, len(stages))
			for i, st := range stages {
				rounds[i] = st.Round
			}
			return rt.RunPipeline(rounds)
		}},
		{"RunStaged", true, func(rt *Job, stages []StagedRound) error { return rt.RunStaged(stages) }},
		{"RunPlan", true, func(rt *Job, stages []StagedRound) error {
			p := rt.CompilePlan("sequence", stages)
			if got := len(p.Rounds()); got != len(stages) {
				return fmt.Errorf("plan has %d rounds, want %d", got, len(stages))
			}
			if !rt.Config().Pipeline {
				// One-round segments need no conflict analysis.
				if st := rt.PlanCacheStats(); p.Cached || st.Hits != 0 || st.Misses != 0 {
					return fmt.Errorf("plan without pipelining touched the plan cache: cached=%v %+v", p.Cached, st)
				}
			}
			return rt.RunPlan(p)
		}},
	}
	// accounting is everything two runs that cut the sequence into the same
	// segments must agree on.
	type accounting struct {
		Sim                                   time.Duration
		Rounds, Retries                       int
		Reads, Writes, BytesRead, BytesWrite  int64
		CacheHits, CacheMisses                int64
		Segments, PipelinedRounds             int
		PipeSim, BarrierSim, PipeIdle, BarIdl time.Duration
	}
	var wantContents [][]uint64
	for _, pipeline := range []bool{false, true} {
		for _, budget := range []int{0, 2} {
			var want *accounting
			for _, e := range entries {
				name := fmt.Sprintf("%s/pipeline=%v/budget=%d", e.name, pipeline, budget)
				t.Run(name, func(t *testing.T) {
					rt := New(Config{Machines: 4, Threads: 1, Seed: 1, EnableCache: true,
						Placement: PlacementOwnerAffine, Pipeline: pipeline, FaultBudget: budget})
					defer rt.Close()
					rt.SetKeyspace(n)
					stages, stores := segmentSequence(t, rt, n, budget > 0)
					if err := e.run(rt, stages); err != nil {
						t.Fatal(err)
					}
					st := rt.Stats()

					var contents [][]uint64
					for _, store := range stores {
						vals := make([]uint64, n)
						for k := range vals {
							v, ok, err := store.Get(uint64(k))
							if err != nil || !ok {
								t.Fatalf("store %s key %d: ok=%v err=%v", store.Name(), k, ok, err)
							}
							vals[k] = binary.LittleEndian.Uint64(v)
						}
						contents = append(contents, vals)
					}
					if wantContents == nil {
						wantContents = contents
					} else if !reflect.DeepEqual(contents, wantContents) {
						t.Fatal("store contents differ from the first run's")
					}

					// Run cuts one segment per round whatever Config.Pipeline
					// says.
					oneRoundSegments := !pipeline || e.name == "Run"
					var phases, wantPhases []string
					for _, ph := range st.Phases {
						phases = append(phases, ph.Name)
					}
					if e.phased && oneRoundSegments {
						wantPhases = []string{"write", "ranged", "whole"}
					} else if e.phased {
						wantPhases = []string{"write+ranged+whole"}
					}
					if !reflect.DeepEqual(phases, wantPhases) {
						t.Fatalf("phases %v, want %v", phases, wantPhases)
					}

					got := accounting{st.Sim, st.Rounds, st.SubroundRetries,
						st.KVReads, st.KVWrites, st.KVBytesRead, st.KVBytesWritten,
						st.CacheHits, st.CacheMisses,
						st.PipelineSegments, st.PipelinedRounds,
						st.PipelineSim, st.BarrierSim, st.PipelineIdle, st.BarrierIdle}
					if got.Rounds != 3 || got.CacheHits == 0 || got.Retries != budget/2 {
						t.Fatalf("implausible accounting %+v", got)
					}
					if oneRoundSegments && (got.Segments != 0 || got.PipelinedRounds != 0 || got.PipeSim != 0 ||
						got.BarrierSim != 0 || got.PipeIdle != 0 || got.BarIdl != 0) {
						t.Fatalf("one-round segments moved the pipeline counters: %+v", got)
					}
					if !oneRoundSegments && (got.Segments != 1 || got.PipelinedRounds != 3) {
						t.Fatalf("%d segments of %d rounds, want 1 of 3", got.Segments, got.PipelinedRounds)
					}
					if oneRoundSegments == pipeline {
						return // Run under pipelining: cut unlike its neighbours
					}
					if want == nil {
						want = &got
					} else if got != *want {
						t.Fatalf("accounting\n %+v\nwant\n %+v", got, *want)
					}
				})
			}
		}
	}
}

// TestSegmentReportsLowestFailedSubround: when several sub-rounds fail with
// no budget left, the segment's error is the one of the lowest (round,
// machine) — however late that sub-round's completion arrives.
func TestSegmentReportsLowestFailedSubround(t *testing.T) {
	const machines = 4
	failures := make([][]error, 3)
	for rj := range failures {
		failures[rj] = make([]error, machines)
		for m := range failures[rj] {
			failures[rj][m] = fmt.Errorf("round %d machine %d failed", rj, m)
		}
	}
	// failing builds round rj of a segment: the named machines fail, the
	// lowest of them last.
	failing := func(rj int, fail ...int) Round {
		return Round{Name: fmt.Sprintf("r%d", rj), Items: machines, Body: func(ctx *Ctx, item int) error {
			for i, m := range fail {
				if m == ctx.Machine {
					if i == 0 {
						time.Sleep(2 * time.Millisecond)
					}
					return failures[rj][m]
				}
			}
			return nil
		}}
	}
	for rep := 0; rep < 20; rep++ {
		r := New(Config{Machines: machines, Threads: 2, Pipeline: true})
		if err := r.Run(failing(0, 1, 3)); !errors.Is(err, failures[0][1]) {
			t.Fatalf("rep %d: one-round segment failed with %v, want machine 1's error", rep, err)
		}
		// Machine 0 fails in the last round — first to be reported, since the
		// undeclared rounds do not wait for each other — and machines 1 and 3
		// in the middle one.
		err := r.RunPipeline([]Round{failing(0), failing(1, 1, 3), failing(2, 0)})
		if !errors.Is(err, failures[1][1]) {
			t.Fatalf("rep %d: three-round segment failed with %v, want round 1 machine 1's error", rep, err)
		}
		r.Close()
	}
}
