// Package matching implements the AMPC maximal matching algorithms of
// Section 4 of the paper, together with the Corollary 4.1 reductions.
//
// The primary entry point, Run, is the constant-round vertex-centric query
// process of Theorem 2 (part 2) as implemented in Section 5.4:
//
//  1. PermuteGraph (one shuffle): every vertex's incident edges are sorted by
//     a random edge priority.
//  2. KV-Write: the edge-sorted adjacency lists are written to the
//     distributed hash table.
//  3. IsInMM: every vertex iterates over its incident edges in priority order
//     and runs the recursive edge oracle of Yoshida et al. — an edge joins
//     the random-greedy matching iff none of its lower-priority adjacent
//     edges does — terminating as soon as a matched incident edge is found.
//
// The steps around the recursion — substrate, the one search round,
// single-key or batched, the truncated passes, the serving substrate —
// are shared with MIS: process builds the rankadj.Process that holds what is
// matching's own (the names, the PermuteGraph order, the vertex/edge cache
// and the recursion, searcher, which both search rounds run) and rankadj
// drives it; Run, RunTruncated, RunWithRank, NewPlan and NewShared are
// wrappers.
//
// RunFiltered is the O(log log Δ)-round variant of Theorem 2 (part 1,
// Algorithm 4), which repeatedly matches a low-priority edge sample and
// removes the matched vertices.  RunTruncated is the space-bounded variant
// that truncates every vertex search at the per-machine budget and finishes
// unresolved vertices in later rounds.  All variants compute the same
// lexicographically-first maximal matching for a given seed.
package matching

import (
	"math"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/core/rankadj"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
	"ampcgraph/internal/seq"
)

// RankFunc assigns a symmetric random priority to every undirected edge;
// lower values come earlier in the greedy order.
type RankFunc func(u, v graph.NodeID) uint64

// UniformEdgeRank returns the hash-based uniform edge priorities used for
// unweighted maximal matching.
func UniformEdgeRank(seed int64) RankFunc {
	return func(u, v graph.NodeID) uint64 { return rng.EdgePriority(seed, u, v) }
}

// WeightEdgeRank returns priorities that order edges by decreasing weight
// (ties broken by hash), which turns the greedy maximal matching into the
// classic 1/2-approximate maximum weight matching of Corollary 4.1.
func WeightEdgeRank(g *graph.Graph, seed int64) RankFunc {
	return func(u, v graph.NodeID) uint64 {
		w, _ := g.WeightBetween(u, v)
		// For non-negative floats the IEEE-754 bit pattern is monotone in the
		// value, so complementing it makes larger weights sort first; the low
		// 16 bits are replaced by a hash to break ties between equal weights.
		if w < 0 {
			w = 0
		}
		bits := ^math.Float64bits(w) &^ 0xffff
		return bits | (rng.EdgePriority(seed, u, v) & 0xffff)
	}
}

// Result is the output of an AMPC maximal matching computation.
type Result struct {
	// Matching holds the mate of every vertex (graph.None when unmatched).
	Matching *seq.Matching
	// Stats are the runtime statistics.
	Stats ampc.Stats
	// SearchRounds is the number of search rounds (1 for Run; more for the
	// truncated and filtered variants).
	SearchRounds int
	// Iterations is the number of outer iterations of the filtered variant.
	Iterations int
}

// Run computes the random-greedy maximal matching of g in the paper's
// constant-round implementation.
func Run(g *graph.Graph, cfg ampc.Config) (*Result, error) {
	return runProcess(g, cfg, UniformEdgeRank(cfg.Seed), 0)
}

// RunTruncated computes the same matching but truncates every vertex search
// at the per-machine space budget, finishing unresolved vertices in later
// rounds (Theorem 2, part 2 with the n^ε truncation).
func RunTruncated(g *graph.Graph, cfg ampc.Config) (*Result, error) {
	cfgD := cfg.WithDefaults()
	return runProcess(g, cfg, UniformEdgeRank(cfg.Seed), cfgD.SpaceBudget(g.NumNodes()))
}

// RunWithRank computes the greedy maximal matching under a caller-supplied
// edge ranking (used by the weighted-matching corollary).
func RunWithRank(g *graph.Graph, cfg ampc.Config, rank RankFunc) (*Result, error) {
	return runProcess(g, cfg, rank, 0)
}

// vertexState is the per-vertex cache entry of §5.4: either the vertex is
// known to be matched (and to whom), or the search for it has finished and it
// is known to be unmatched, or it has not been resolved yet.
type vertexState struct {
	kind vertexKind
	mate graph.NodeID
}

type vertexKind uint8

// The zero kind is a vertex not resolved yet.
const (
	vertexMatched vertexKind = iota + 1
	vertexUnmatched
)

// matchCache is the per-machine cache shared by the threads of one machine:
// resolved vertex states and edge-oracle results, each in an insert-only
// table.  Both are facts of the one greedy matching and never change, so
// reads take no lock and the first value stored for a key stays.
type matchCache struct {
	state dht.CacheTable[vertexState]
	edges dht.CacheTable[bool] // edge-oracle results, keyed by packed (u,v)
}

// newMatchCache returns an empty cache sized for n vertices (see
// rankadj.Process.NewCache).
func newMatchCache(n int) *matchCache {
	c := &matchCache{}
	c.state.Reserve(n)
	c.edges.Reserve(n)
	return c
}

func (c *matchCache) vertex(v graph.NodeID) vertexState {
	st, _ := c.state.Get(uint64(v))
	return st
}

func (c *matchCache) setVertex(v graph.NodeID, s vertexState) { c.state.Insert(uint64(v), s) }

func (c *matchCache) edge(key uint64) (bool, bool) { return c.edges.Get(key) }

func (c *matchCache) setEdge(key uint64, in bool) { c.edges.Insert(key, in) }

func packEdge(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// process is the IsInMM query process under the edge ranking rank:
// PermuteGraph sorts every vertex's incident edges by rank, and a vertex's
// mate is the first neighbor whose edge the recursive edge oracle admits.
// rankadj.Process drives it.
func process(rank RankFunc) *rankadj.Process[graph.NodeID, *matchCache] {
	return &rankadj.Process[graph.NodeID, *matchCache]{
		Names: rankadj.Names{
			Shuffle: "PermuteGraph", Search: "IsInMM", Store: "edge-sorted-graph",
			Published: "matching-status", Shared: "mm-edge-sorted-graph",
		},
		Key:      rank,
		NewCache: newMatchCache,
		Single: func(ctx *ampc.Ctx, cache *matchCache, lim rankadj.Limits, v graph.NodeID, list codec.NodeList) (graph.NodeID, error) {
			s := searcher{ctx: ctx, cache: cache, rank: rank, lim: lim}
			return s.vertexProcess(v, list)
		},
		Encode: codec.EncodeNodeID,
	}
}

func runProcess(g *graph.Graph, cfg ampc.Config, rank RankFunc, budget int) (*Result, error) {
	rt := ampc.New(cfg)
	defer rt.Close()
	m, rounds, err := computeMatching(rt, g, rank, budget, "")
	if err != nil {
		return nil, err
	}
	return &Result{Matching: m, Stats: rt.Stats(), SearchRounds: rounds}, nil
}

// computeMatching runs the shuffle + KV-write + search pipeline on an
// existing runtime.  tag suffixes the phase and store names so that the
// filtered variant can run several iterations on one runtime.
func computeMatching(rt *ampc.Job, g *graph.Graph, rank RankFunc, budget int, tag string) (*seq.Matching, int, error) {
	m := seq.NewMatching(g.NumNodes())
	rounds, err := process(rank).Run(rt, g, m.Mate, budget, tag)
	return m, rounds, err
}

// Plan is the maximal matching pipeline prepared on an existing runtime: the
// KV-write round and the IsInMM search round of rankadj.Plan.
type Plan struct {
	rankadj.Plan
	// Matching is filled by the search round.
	Matching *seq.Matching
}

// NewPlan runs the host-side PermuteGraph shuffle for g (under the uniform
// edge ranking of the runtime's seed, as Run uses) and prepares the KV-write
// and search rounds on rt.  Executing the rounds in order completes the
// computation exactly as Run does.
func NewPlan(rt *ampc.Job, g *graph.Graph) (*Plan, error) {
	m := seq.NewMatching(g.NumNodes())
	plan, err := process(UniformEdgeRank(rt.Config().Seed)).NewPlan(rt, g, m.Mate, "")
	if err != nil {
		return nil, err
	}
	return &Plan{Plan: *plan, Matching: m}, nil
}

// Shared is the per-session substrate of the maximal matching computation
// (see rankadj.Shared): the PermuteGraph lists and the frozen edge-sorted
// store every query job of the session reads.
type Shared struct {
	sub *rankadj.Shared[graph.NodeID, *matchCache]
}

// NewShared prepares the shared matching substrate on rt's session under the
// uniform edge ranking of the session's seed (as Run uses).
func NewShared(rt *ampc.Job, g *graph.Graph) (*Shared, error) {
	sub, err := process(UniformEdgeRank(rt.Config().Seed)).NewShared(rt, g)
	if err != nil {
		return nil, err
	}
	return &Shared{sub: sub}, nil
}

// Run executes one maximal matching query as a job on rt against the shared
// substrate; every call computes the same matching the one-shot Run does.
func (sh *Shared) Run(rt *ampc.Job) (*Result, error) {
	m := seq.NewMatching(sh.sub.Len())
	if err := sh.sub.Run(rt, m.Mate); err != nil {
		return nil, err
	}
	return &Result{Matching: m, Stats: rt.Stats(), SearchRounds: 1}, nil
}

// searcher runs the vertex and edge query processes for one work item.
type searcher struct {
	ctx   *ampc.Ctx
	cache *matchCache
	rank  RankFunc
	lim   rankadj.Limits
}

// vertexProcess returns the mate of v in the random-greedy maximal matching
// (graph.None when v stays unmatched).  sortedNbrs is v's adjacency sorted by
// edge rank when the caller holds it — the work item's list from the shuffle
// — and the zero NodeList when it must be fetched.
//
// An EMPTY list also means "fetch": the drivers have always handed an
// isolated vertex a nil list, indistinguishable from "not held", so every
// degree-0 vertex pays one store lookup for the 4-byte encoding of its empty
// list.  That lookup is part of the algorithm's KV traffic and modeled time
// as recorded everywhere (bench's pinned stats, kv_bytes_per_edge, sim_s),
// so it is kept; removing it is a declared traffic change (ROADMAP: "drop
// the empty-list lookup").
func (s *searcher) vertexProcess(v graph.NodeID, sortedNbrs codec.NodeList) (graph.NodeID, error) {
	if st := s.cache.vertex(v); st.kind == vertexMatched {
		return st.mate, nil
	} else if st.kind == vertexUnmatched {
		return graph.None, nil
	}
	if mate, ok, err := s.lookupPublishedMate(v); err != nil {
		return graph.None, err
	} else if ok {
		return mate, nil
	}
	if sortedNbrs.Len() == 0 {
		var err error
		sortedNbrs, err = s.lim.Fetch(s.ctx, v)
		if err != nil {
			return graph.None, err
		}
	}
	for i := 0; i < sortedNbrs.Len(); i++ {
		u := sortedNbrs.At(i)
		in, err := s.edgeProcess(v, u)
		if err != nil {
			return graph.None, err
		}
		if in {
			s.ctx.ChargeCompute(1)
			s.cache.setVertex(v, vertexState{kind: vertexMatched, mate: u})
			s.cache.setVertex(u, vertexState{kind: vertexMatched, mate: v})
			return u, nil
		}
		// If u got matched to someone else, the edge (v,u) is dead but v may
		// still match through a later edge; continue.
	}
	s.ctx.ChargeCompute(1)
	s.cache.setVertex(v, vertexState{kind: vertexUnmatched, mate: graph.None})
	return graph.None, nil
}

// edgeProcess reports whether the edge (u, v) belongs to the random-greedy
// maximal matching: it does iff no adjacent edge of strictly lower rank does.
func (s *searcher) edgeProcess(u, v graph.NodeID) (bool, error) {
	key := packEdge(u, v)
	if in, ok := s.cache.edge(key); ok {
		return in, nil
	}
	// Resolved endpoints short-circuit the recursion: (u,v) is in the
	// matching iff one endpoint's known mate is the other endpoint, and it is
	// certainly out if an endpoint is known to be matched elsewhere or known
	// to stay unmatched.
	for _, x := range [2]graph.NodeID{u, v} {
		switch st := s.cache.vertex(x); st.kind {
		case vertexMatched:
			in := packEdge(x, st.mate) == key
			s.cache.setEdge(key, in)
			return in, nil
		case vertexUnmatched:
			s.cache.setEdge(key, false)
			return false, nil
		}
		if mate, ok, err := s.lookupPublishedMate(x); err != nil {
			return false, err
		} else if ok {
			in := mate != graph.None && packEdge(x, mate) == key
			s.cache.setEdge(key, in)
			return in, nil
		}
	}
	myRank := s.rank(u, v)
	au, err := s.lim.Fetch(s.ctx, u)
	if err != nil {
		return false, err
	}
	av, err := s.lim.Fetch(s.ctx, v)
	if err != nil {
		return false, err
	}
	s.lim.ChargeScan(s.ctx, key, au.Len()+av.Len())
	// Merge the two rank-sorted adjacency lists, visiting adjacent edges of
	// rank lower than (u,v) in increasing rank order.
	i, j := 0, 0
	for i < au.Len() || j < av.Len() {
		var a, b graph.NodeID
		var ra, rb uint64
		haveA, haveB := i < au.Len(), j < av.Len()
		if haveA {
			a = au.At(i)
			ra = s.rank(u, a)
		}
		if haveB {
			b = av.At(j)
			rb = s.rank(v, b)
		}
		var x, y graph.NodeID
		var r uint64
		if haveA && (!haveB || ra <= rb) {
			x, y, r = u, a, ra
			i++
		} else {
			x, y, r = v, b, rb
			j++
		}
		if r >= myRank {
			break // remaining adjacent edges all have higher rank
		}
		if packEdge(x, y) == key {
			continue
		}
		in, err := s.edgeProcess(x, y)
		if err != nil {
			return false, err
		}
		if in {
			s.cache.setEdge(key, false)
			s.cache.setVertex(x, vertexState{kind: vertexMatched, mate: y})
			s.cache.setVertex(y, vertexState{kind: vertexMatched, mate: x})
			return false, nil
		}
	}
	s.cache.setEdge(key, true)
	return true, nil
}

func (s *searcher) lookupPublishedMate(v graph.NodeID) (graph.NodeID, bool, error) {
	if s.lim.Published == nil {
		return graph.None, false, nil
	}
	raw, ok, err := s.lim.Published.Get(uint64(v))
	if err != nil || !ok {
		return graph.None, false, err
	}
	mate, err := codec.DecodeNodeID(raw)
	if err != nil {
		return graph.None, false, err
	}
	return mate, true, nil
}
