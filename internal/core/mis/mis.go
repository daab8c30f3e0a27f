// Package mis implements the AMPC Maximal Independent Set algorithm of
// Section 5.3 (Figure 1) of the paper.
//
// The algorithm computes the lexicographically-first MIS over a random vertex
// ordering given by hash-based priorities:
//
//  1. DirectGraph (one shuffle): every vertex keeps only its neighbors of
//     higher priority (earlier rank), sorted by rank.
//  2. KV-Write: the directed graph is written to the distributed hash table.
//  3. IsInMIS: every vertex runs the recursive query process of Yoshida et
//     al. — a vertex is in the MIS iff none of its earlier neighbors is —
//     fetching neighborhoods from the hash table on demand.
//
// The steps around the recursion — substrate, local and spill search stages,
// single-key or batched rounds, the truncated passes, the serving substrate —
// are shared with maximal matching: process builds the rankadj.Process that
// holds what is MIS's own (the names, the DirectGraph order, the status
// cache, the recursion as searcher and as batchSearcher) and rankadj drives
// it; the exported entry points here are wrappers.
//
// Two optimizations from the paper are supported through ampc.Config:
// per-machine caching of vertex statuses (EnableCache) and multithreading
// (Threads).  The default mode mirrors the paper's implementation, which
// resolves every vertex in a single search round (2 AMPC rounds in total);
// RunTruncated implements the theoretical O(1/ε)-round variant that truncates
// each search at the per-machine space budget and finishes unresolved
// vertices in later rounds.
package mis

import (
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/core/rankadj"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
)

// Result is the output of the AMPC MIS computation.
type Result struct {
	// InMIS marks the vertices of the maximal independent set.
	InMIS []bool
	// Stats are the runtime statistics (rounds, shuffles, key-value traffic).
	Stats ampc.Stats
	// SearchRounds is the number of search rounds used (1 for Run, up to
	// O(1/ε) for RunTruncated).
	SearchRounds int
}

type status uint8

const (
	statusUnknown status = iota
	statusIn
	statusOut
)

// statusCache is the per-machine cache of vertex statuses described in §5.3:
// a three-valued state (Unknown / InMIS / NotInMIS) shared by all threads of
// one machine.
type statusCache struct {
	mu sync.RWMutex
	st map[graph.NodeID]status
}

func newStatusCache() *statusCache {
	return &statusCache{st: make(map[graph.NodeID]status)}
}

func (c *statusCache) get(v graph.NodeID) status {
	if c == nil {
		return statusUnknown
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.st[v]
}

func (c *statusCache) set(v graph.NodeID, s status) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.st[v] = s
	c.mu.Unlock()
}

// process is the IsInMIS query process under the vertex priorities prio:
// DirectGraph keeps every vertex's neighbors of higher priority (earlier
// rank), sorted by rank, and a vertex is in the MIS iff none of them is.
// rankadj.Process drives it.
func process(prio []uint64) *rankadj.Process[bool, *statusCache] {
	return &rankadj.Process[bool, *statusCache]{
		Names: rankadj.Names{
			Shuffle: "DirectGraph", Search: "IsInMIS", Store: "directed-graph", Token: "mis-local",
			Published: "mis-status", Shared: "mis-directed-graph", PlanKey: "mis-search",
		},
		Keep:     func(v, u graph.NodeID) bool { return prio[u] < prio[v] || prio[u] == prio[v] && u < v },
		Key:      func(_, u graph.NodeID) uint64 { return prio[u] },
		NewCache: newStatusCache,
		Single: func(ctx *ampc.Ctx, cache *statusCache, lim rankadj.Limits, v graph.NodeID, list codec.NodeList) (bool, error) {
			s := searcher{ctx: ctx, cache: cache, lim: lim}
			return s.inMIS(v, list)
		},
		Block: func(ctx *ampc.Ctx, cache *statusCache, size int) rankadj.Evaluator[bool] {
			return &batchSearcher{ctx: ctx, cache: cache, lists: make(map[graph.NodeID]codec.NodeList, size)}
		},
		Encode: func(in bool) []byte {
			if in {
				return []byte{byte(statusIn)}
			}
			return []byte{byte(statusOut)}
		},
	}
}

// seeded is the process under the hash-based priorities of rt's seed.
func seeded(rt *ampc.Job, g *graph.Graph) *rankadj.Process[bool, *statusCache] {
	return process(rng.VertexPriorities(rt.Config().Seed, g.NumNodes()))
}

// Run computes the MIS of g with the paper's 2-round AMPC implementation.
func Run(g *graph.Graph, cfg ampc.Config) (*Result, error) {
	return run(g, cfg, 0)
}

// RunTruncated computes the MIS with the theoretical O(1/ε)-round variant:
// every search is truncated after the per-machine space budget of queries,
// unresolved vertices retry in later rounds against the statuses published by
// earlier rounds.
func RunTruncated(g *graph.Graph, cfg ampc.Config) (*Result, error) {
	return run(g, cfg, cfg.WithDefaults().SpaceBudget(g.NumNodes()))
}

func run(g *graph.Graph, cfg ampc.Config, budget int) (*Result, error) {
	rt := ampc.New(cfg)
	defer rt.Close()
	inMIS := make([]bool, g.NumNodes())
	rounds, err := seeded(rt, g).Run(rt, g, inMIS, budget, "")
	if err != nil {
		return nil, err
	}
	return &Result{InMIS: inMIS, SearchRounds: rounds, Stats: rt.Stats()}, nil
}

// Plan is the MIS pipeline prepared on an existing runtime: the KV-write
// round and the two IsInMIS search stages of rankadj.Plan.
type Plan struct {
	rankadj.Plan
	// InMIS is filled by the two search stages together.
	InMIS []bool
}

// NewPlan runs the host-side DirectGraph shuffle for g and prepares the
// KV-write and search rounds on rt.  Executing the rounds (in order, with the
// declared dependency respected) completes the computation exactly as Run
// does.
func NewPlan(rt *ampc.Job, g *graph.Graph) (*Plan, error) {
	inMIS := make([]bool, g.NumNodes())
	plan, err := seeded(rt, g).NewPlan(rt, g, inMIS, "")
	if err != nil {
		return nil, err
	}
	return &Plan{Plan: *plan, InMIS: inMIS}, nil
}

// Shared is the per-session substrate of the MIS computation (see
// rankadj.Shared): the DirectGraph lists and the frozen directed-graph store
// every query job of the session reads.
type Shared struct {
	sub *rankadj.Shared[bool, *statusCache]
}

// NewShared prepares the shared MIS substrate on rt's session.
func NewShared(rt *ampc.Job, g *graph.Graph) (*Shared, error) {
	sub, err := seeded(rt, g).NewShared(rt, g)
	if err != nil {
		return nil, err
	}
	return &Shared{sub: sub}, nil
}

// Run executes one MIS query as a job on rt against the shared substrate;
// every call computes the same set the one-shot Run does.
func (sh *Shared) Run(rt *ampc.Job) (*Result, error) {
	inMIS := make([]bool, sh.sub.Len())
	if err := sh.sub.Run(rt, inMIS); err != nil {
		return nil, err
	}
	return &Result{InMIS: inMIS, SearchRounds: 1, Stats: rt.Stats()}, nil
}

// searcher runs the recursive IsInMIS query process for one work item.
type searcher struct {
	ctx   *ampc.Ctx
	cache *statusCache
	lim   rankadj.Limits
}

// inMIS reports whether v belongs to the MIS.  neighbors is v's directed
// (earlier, rank-sorted) neighborhood when the caller holds it — the work
// item's list from the shuffle — and the zero NodeList when it must be
// fetched.
//
// An EMPTY list also means "fetch": the drivers have always handed a
// vertex with no earlier neighbor a nil list, which is indistinguishable from
// "not held", so every such vertex — each of them is in the MIS — pays one
// store lookup for the 4-byte encoding of its empty list before the loop
// below finds nothing to do.  That lookup is part of the algorithm's KV
// traffic and modeled time as recorded everywhere (bench's pinned stats,
// kv_bytes_per_edge, sim_s), so it is kept; removing it is a declared
// traffic change (ROADMAP: "drop the empty-list lookup").
func (s *searcher) inMIS(v graph.NodeID, neighbors codec.NodeList) (bool, error) {
	if st := s.cache.get(v); st != statusUnknown {
		return st == statusIn, nil
	}
	if s.lim.Published != nil {
		// Statuses resolved in earlier rounds of the truncated variant.
		raw, ok, err := s.lim.Published.Get(uint64(v))
		if err != nil {
			return false, err
		}
		if ok && len(raw) > 0 {
			s.cache.set(v, status(raw[0]))
			return status(raw[0]) == statusIn, nil
		}
	}
	if neighbors.Len() == 0 {
		var err error
		neighbors, err = s.lim.Fetch(s.ctx, v)
		if err != nil {
			return false, err
		}
	}
	s.ctx.ChargeCompute(1)
	for i := 0; i < neighbors.Len(); i++ {
		in, err := s.inMIS(neighbors.At(i), codec.NodeList{})
		if err != nil {
			return false, err
		}
		if in {
			s.cache.set(v, statusOut)
			return false, nil
		}
	}
	s.cache.set(v, statusIn)
	return true, nil
}
