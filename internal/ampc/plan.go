package ampc

import (
	"sync"

	"ampcgraph/internal/simtime"
)

// Compiled plans.
//
// Executing a multi-round segment through RunPipeline or RunStaged re-derives
// the same conflict analysis every time: subroundDeps walks every (round, machine,
// machine) triple comparing declared access spans.  For a serving workload
// the sequences are static — the same query shape arrives over and over —
// so the analysis is compiled once into a Plan and cached per Session under
// the caller's plan key.  The cache holds one ownership generation: span
// declarations are derived from ownership, so installing a new table
// (SetKeyspace, SetOwnership, Rebalance) drops every compiled analysis, and a
// session whose keyspace keeps changing holds at most its live keys.
//
// A Plan's cached dependency matrix describes the *aliasing pattern* of the
// declared accesses — which accesses name the same store or token, and how
// their spans overlap — not the store pointers themselves.  Reusing a key
// therefore promises that the new round sequence declares the same pattern:
// same number of rounds, same relative store identities, same span shapes.
// The core drivers guarantee this by construction (each query rebuilds its
// rounds from the same code path over the same session stores and
// ownership); hand-built plans must keep the same discipline.

// Plan is an immutable, reusable compilation of a staged round sequence:
// the rounds plus the sub-round dependency analysis the segment executor
// schedules under.  Build one with Session.CompilePlan and execute it with
// Job.RunPlan; repeated compilations of the same key hit the session's
// plan cache and skip the conflict analysis.
type Plan struct {
	// Key is the caller-chosen cache key the plan was compiled under.
	Key string
	// Cached reports whether the dependency analysis came from the
	// session's plan cache (a hit) rather than being computed fresh.
	Cached bool

	stages []StagedRound
	rounds []Round
	// deps is the per-(round, machine) predecessor matrix; nil when the
	// plan executes as one-round segments (Config.Pipeline unset or fewer
	// than two rounds), where no analysis is needed.
	deps [][][]simtime.SubDep
}

// Rounds returns the plan's rounds in execution order.
func (p *Plan) Rounds() []Round { return p.rounds }

// PlanCacheStats reports the session plan cache's effectiveness.
type PlanCacheStats struct {
	Hits   int64
	Misses int64
	Size   int
}

// planCache memoizes sub-round dependency analyses per key for one ownership
// generation — the newest it has been asked about.
type planCache struct {
	mu     sync.Mutex
	gen    int64
	deps   map[string][][][]simtime.SubDep
	hits   int64
	misses int64
}

// lookup returns key's analysis under generation gen; a generation newer
// than the cache's drops everything the cache holds.
func (pc *planCache) lookup(key string, gen int64) ([][][]simtime.SubDep, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if gen > pc.gen {
		pc.gen, pc.deps = gen, nil
	}
	if gen < pc.gen { // the caller read the generation before a newer one arrived
		pc.misses++
		return nil, false
	}
	d, ok := pc.deps[key]
	if ok {
		pc.hits++
	} else {
		pc.misses++
	}
	return d, ok
}

// store caches deps under key, unless gen was overtaken since the caller's
// lookup (the analysis is still good for the plan being compiled).
func (pc *planCache) store(key string, gen int64, deps [][][]simtime.SubDep) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if gen != pc.gen {
		return
	}
	if pc.deps == nil {
		pc.deps = make(map[string][][][]simtime.SubDep)
	}
	pc.deps[key] = deps
}

func (pc *planCache) stats() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{Hits: pc.hits, Misses: pc.misses, Size: len(pc.deps)}
}

// PlanCacheStats returns the session plan cache's hit/miss counters.
func (s *Session) PlanCacheStats() PlanCacheStats { return s.planCache.stats() }

// CompilePlan compiles a staged round sequence into a Plan under the given
// cache key.  With Config.Pipeline set and at least two rounds, the
// sub-round conflict analysis is looked up in the session's plan cache under
// key, for the current ownership generation, and computed (and cached) on a
// miss; otherwise the plan simply records the stages.  See the comment above
// for the aliasing contract a reused key carries.
func (s *Session) CompilePlan(key string, stages []StagedRound) *Plan {
	p := &Plan{Key: key, stages: append([]StagedRound(nil), stages...)}
	p.rounds = make([]Round, len(stages))
	for i, st := range stages {
		p.rounds[i] = st.Round
	}
	if !s.cfg.Pipeline || len(p.rounds) < 2 {
		return p
	}
	gen := s.ownGen.Load()
	if deps, ok := s.planCache.lookup(key, gen); ok {
		p.deps = deps
		p.Cached = true
		return p
	}
	p.deps = subroundDeps(p.rounds, s.cfg.Machines)
	s.planCache.store(key, gen, p.deps)
	return p
}

// RunPlan executes a compiled plan on this job, reusing the plan's cached
// analysis instead of re-deriving it.  Results and accounting are
// byte-identical to RunStaged on the same stages.
func (j *Job) RunPlan(p *Plan) error { return j.runStages(p.stages, p.deps) }
