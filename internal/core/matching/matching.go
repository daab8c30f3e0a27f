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
// RunFiltered is the O(log log Δ)-round variant of Theorem 2 (part 1,
// Algorithm 4), which repeatedly matches a low-priority edge sample and
// removes the matched vertices.  RunTruncated is the space-bounded variant
// that truncates every vertex search at the per-machine budget and finishes
// unresolved vertices in later rounds.  All variants compute the same
// lexicographically-first maximal matching for a given seed.
package matching

import (
	"errors"
	"fmt"
	"math"
	"sync"

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

const (
	vertexUnknown vertexKind = iota
	vertexMatched
	vertexUnmatched
)

// matchCache is the per-machine cache shared by the threads of one machine.
type matchCache struct {
	mu    sync.RWMutex
	state map[graph.NodeID]vertexState
	edges map[uint64]bool // edge-oracle results, keyed by packed (u,v)
}

func newMatchCache() *matchCache {
	return &matchCache{state: make(map[graph.NodeID]vertexState), edges: make(map[uint64]bool)}
}

func (c *matchCache) vertex(v graph.NodeID) vertexState {
	if c == nil {
		return vertexState{}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.state[v]
}

func (c *matchCache) setVertex(v graph.NodeID, s vertexState) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.state[v] = s
	c.mu.Unlock()
}

func (c *matchCache) edge(key uint64) (bool, bool) {
	if c == nil {
		return false, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	in, ok := c.edges[key]
	return in, ok
}

func (c *matchCache) setEdge(key uint64, in bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.edges[key] = in
	c.mu.Unlock()
}

func packEdge(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
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

// permuteGraph runs the PermuteGraph shuffle (Step 1): every vertex's
// incident edges sorted by edge priority — one shuffle stage on the worker
// pool (rankadj.Lists), which evaluates rank once per endpoint.
func permuteGraph(rt *ampc.Runtime, g *graph.Graph, rank RankFunc, tag string) ([]codec.NodeList, error) {
	return rankadj.Lists(rt, "PermuteGraph"+tag, g, nil, rank)
}

// sortedStore runs the PermuteGraph shuffle and prepares the store holding
// the edge-sorted graph plus the KV-write round that fills it — the shared
// prefix of the single-pass plan and the truncated driver.
func sortedStore(rt *ampc.Runtime, g *graph.Graph, rank RankFunc, tag string) ([]codec.NodeList, *dht.Store, ampc.Round, error) {
	sorted, err := permuteGraph(rt, g, rank, tag)
	if err != nil {
		return nil, nil, ampc.Round{}, err
	}
	store, err := rt.OpenStore("edge-sorted-graph" + tag)
	if err != nil {
		return nil, nil, ampc.Round{}, err
	}
	write := rt.WriteTableRound("kv-write"+tag, store, g.NumNodes(), 1, func(item int) []byte {
		return sorted[item].Encoded()
	})
	return sorted, store, write, nil
}

// Plan is the 2-round maximal matching pipeline prepared on an existing
// runtime: the KV-write round producing the edge-sorted store and the IsInMM
// search round reading it.  The rounds declare their store dependency, so
// they can be staged into a larger RunPipeline sequence next to another
// algorithm's rounds (see the bench "pipeline" experiment).
type Plan struct {
	// Write stores the edge-sorted adjacency lists.  Search (the local
	// stage) resolves every vertex whose edge-oracle recursion stays inside
	// the executing machine's owned key range, reading only that range;
	// Spill finishes the searches that escaped their range, reading the
	// whole store.  The local stage of machine m therefore conflicts only
	// with m's own write sub-round, which is what lets RunPipeline overlap
	// it with the other machines' writes.
	Write, Search, Spill ampc.Round
	// Matching is filled by the two search stages together.
	Matching *seq.Matching
}

// Rounds returns the plan's rounds in execution order, ready to be staged
// into a RunPipeline sequence (possibly interleaved with another plan's).
func (p *Plan) Rounds() []ampc.Round { return []ampc.Round{p.Write, p.Search, p.Spill} }

// NewPlan runs the host-side PermuteGraph shuffle for g (under the uniform
// edge ranking of the runtime's seed, as Run uses) and prepares the KV-write
// and search rounds on rt.  Executing the two rounds completes the
// computation exactly as Run does.
func NewPlan(rt *ampc.Runtime, g *graph.Graph) (*Plan, error) {
	return newPlan(rt, g, UniformEdgeRank(rt.Config().Seed), "")
}

func newPlan(rt *ampc.Runtime, g *graph.Graph, rank RankFunc, tag string) (*Plan, error) {
	n := g.NumNodes()
	rt.SetOwnership(graph.DegreeWeights(g))
	sorted, store, write, err := sortedStore(rt, g, rank, tag)
	if err != nil {
		return nil, err
	}
	local, spill, matching := searchStages(rt, store, sorted, rank, rt.WriteRanges(n), tag)
	return &Plan{Write: write, Search: local, Spill: spill, Matching: matching}, nil
}

// searchStages builds the local and spill IsInMM search rounds over the
// edge-sorted store, with fresh result state (the returned matching,
// vertex/edge caches) private to the pair — the one-shot plan and every
// serving query (Shared.Run) get theirs here.  The local stage reads the
// per-machine key ranges spans — the ranges the write round declares — so
// local(m) depends on write(m) alone; a token orders every spill sub-round
// after every local one without naming any storage.
func searchStages(rt *ampc.Runtime, store *dht.Store, sorted []codec.NodeList, rank RankFunc,
	spans []dht.RangeSet, tag string) (local, spill ampc.Round, matching *seq.Matching) {
	cfgD := rt.Config()
	n := len(sorted)
	matching = seq.NewMatching(n)
	resolved := make([]bool, n)
	caches := make([]*matchCache, cfgD.Machines)
	if cfgD.EnableCache {
		for i := range caches {
			caches[i] = newMatchCache()
		}
	}
	mu := new(sync.Mutex)
	if cfgD.Batch {
		// Streaming block evaluation over shard-grouped batches (see
		// batch.go).
		local = batchSearchRound(rt, "IsInMM"+tag, store, sorted, rank, caches, matching.Mate, resolved, mu, spans)
		spill = batchSearchRound(rt, "IsInMM-spill"+tag, store, sorted, rank, caches, matching.Mate, resolved, mu, nil)
	} else {
		local = searchRound(rt, "IsInMM"+tag, store, sorted, rank, caches, matching.Mate, resolved, mu, spans)
		spill = searchRound(rt, "IsInMM-spill"+tag, store, sorted, rank, caches, matching.Mate, resolved, mu, nil)
	}
	tok := ampc.NewToken("mm-local" + tag)
	local.Reads = []ampc.Access{ampc.RangedBy(store, spans)}
	local.Writes = []ampc.Access{{Token: tok}}
	spill.Reads = []ampc.Access{{Token: tok}}
	return local, spill, matching
}

// computeMatching runs the shuffle + KV-write + search pipeline on an
// existing runtime.  tag suffixes the phase and store names so that the
// filtered variant can run several iterations on one runtime.
func computeMatching(rt *ampc.Runtime, g *graph.Graph, rank RankFunc, budget int, tag string) (*seq.Matching, int, error) {
	cfgD := rt.Config()
	n := g.NumNodes()
	// Degree-proportional placement weights keep per-machine load even under
	// ampc.PlacementWeighted; under other placements this only declares the
	// keyspace.
	rt.SetOwnership(graph.DegreeWeights(g))

	if budget == 0 {
		// Untruncated searches resolve in a single pass, so the KV-write
		// and the search form one static round sequence with a declared
		// store dependency.  RunStaged executes them at per-round barriers
		// by default and as one dependency-scheduled pipeline under
		// Config.Pipeline — with byte-identical results either way.
		plan, err := newPlan(rt, g, rank, tag)
		if err != nil {
			return nil, 0, err
		}
		err = rt.RunStaged([]ampc.StagedRound{
			{Phase: "KV-Write" + tag, Round: plan.Write},
			{Phase: "IsInMM" + tag, Round: plan.Search},
			{Phase: "IsInMM-spill" + tag, Round: plan.Spill},
		})
		if err != nil {
			return nil, 0, err
		}
		return plan.Matching, 1, nil
	}

	// Truncated variant: searches are budgeted and retried across passes,
	// so the driver stays dynamic.  The single-key path is kept so the
	// per-search query budget retains its original meaning.
	sorted, store, writeRound, err := sortedStore(rt, g, rank, tag)
	if err != nil {
		return nil, 0, err
	}
	matching := seq.NewMatching(n)
	resolved := make([]bool, n)
	err = rt.Phase("KV-Write"+tag, func() error { return rt.Run(writeRound) })
	if err != nil {
		return nil, 0, err
	}
	searchRounds := 0
	mateStore, err := rt.OpenStore("matching-status" + tag)
	if err != nil {
		return nil, 0, err
	}

	pass := 0
	prevRemaining := -1
	for {
		pass++
		remaining := 0
		for v := 0; v < n; v++ {
			if !resolved[v] {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		if remaining == prevRemaining {
			// Engineering safeguard beyond the paper's analysis: if a pass
			// made no progress, double the truncation budget so the next one
			// must.
			budget *= 2
		}
		prevRemaining = remaining
		caches := make([]*matchCache, cfgD.Machines)
		if cfgD.EnableCache {
			for i := range caches {
				caches[i] = newMatchCache()
			}
		}
		phaseName := "IsInMM" + tag
		if pass > 1 {
			phaseName = fmt.Sprintf("IsInMM%s-pass%d", tag, pass)
		}
		err = rt.Phase(phaseName, func() error {
			round := ampc.Round{
				Name:        phaseName,
				Items:       n,
				Read:        store,
				Writes:      []ampc.Access{{Store: mateStore}},
				Partitioner: rt.OwnerPartitioner(n),
				Body: func(ctx *ampc.Ctx, item int) error {
					if resolved[item] {
						return nil
					}
					cache := caches[ctx.Machine]
					if cache == nil {
						// Without the caching optimization, results are still
						// memoized within a single query (the paper's
						// unoptimized variant); they are just not shared
						// across queries, so every vertex re-fetches from the
						// key-value store.
						cache = newMatchCache()
					}
					s := &searcher{
						ctx:    ctx,
						cache:  cache,
						rank:   rank,
						budget: budget,
					}
					if pass > 1 {
						s.mateStore = mateStore
					}
					mate, err := s.vertexProcess(graph.NodeID(item), sorted[item])
					if errors.Is(err, errTruncated) {
						return nil // retry next pass
					}
					if err != nil {
						return err
					}
					matching.Mate[item] = mate
					resolved[item] = true
					return ctx.Write(mateStore, uint64(item), codec.EncodeNodeID(mate))
				},
			}
			if pass > 1 {
				round.Reads = []ampc.Access{{Store: mateStore}}
			}
			return rt.Run(round)
		})
		if err != nil {
			return nil, 0, err
		}
		searchRounds = pass
		if pass > 64 {
			return nil, 0, fmt.Errorf("matching: truncated search did not converge after %d passes", pass)
		}
	}
	if searchRounds == 0 {
		searchRounds = 1
	}
	return matching, searchRounds, nil
}

// searchRound builds one stage of the single-key IsInMM search: every
// unresolved vertex runs the vertex-centric query process against the frozen
// edge-sorted store.  With spans set (the local stage) each machine's
// searches are confined to spans[machine]: a recursion that needs a key
// outside the range escapes and is left unresolved for the spill stage,
// which passes spans == nil and finishes the remainder against the whole
// store.
func searchRound(rt *ampc.Runtime, name string, store *dht.Store, sorted []codec.NodeList,
	rank RankFunc, caches []*matchCache, mate []graph.NodeID, resolved []bool, mu *sync.Mutex,
	spans []dht.RangeSet) ampc.Round {
	n := len(sorted)
	return ampc.Round{
		Name:        name,
		Items:       n,
		Read:        store,
		Partitioner: rt.OwnerPartitioner(n),
		Body: func(ctx *ampc.Ctx, item int) error {
			if resolved[item] {
				return nil
			}
			cache := caches[ctx.Machine]
			if cache == nil {
				cache = newMatchCache()
			}
			s := &searcher{ctx: ctx, cache: cache, rank: rank}
			if spans != nil {
				s.span = spans[ctx.Machine]
			}
			got, err := s.vertexProcess(graph.NodeID(item), sorted[item])
			if errors.Is(err, errEscape) {
				return nil // finished by the spill stage
			}
			if err != nil {
				return err
			}
			mu.Lock()
			mate[item] = got
			resolved[item] = true
			mu.Unlock()
			return nil
		},
	}
}

var errTruncated = fmt.Errorf("matching: search truncated")

// errEscape reports that a span-confined search needed a key outside its
// range; the vertex stays unresolved and the spill stage finishes it.
// Vertex states and edge-oracle results cached before the escape are
// complete results and stay valid.
var errEscape = fmt.Errorf("matching: search escaped its key range")

// searcher runs the vertex and edge query processes for one work item.
type searcher struct {
	ctx   *ampc.Ctx
	cache *matchCache
	rank  RankFunc
	// span confines the search to a key range (zero value: unconfined);
	// fetching a key outside it aborts the search with errEscape.
	span      dht.RangeSet
	budget    int
	queries   int
	mateStore *dht.Store
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
// so it is kept; removing it is a declared traffic change (ROADMAP item 2).
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
		sortedNbrs, err = s.fetchNeighbors(v)
		if err != nil {
			return graph.None, err
		}
	}
	s.ctx.ChargeCompute(1)
	for i := 0; i < sortedNbrs.Len(); i++ {
		u := sortedNbrs.At(i)
		in, err := s.edgeProcess(v, u)
		if err != nil {
			return graph.None, err
		}
		if in {
			s.cache.setVertex(v, vertexState{kind: vertexMatched, mate: u})
			s.cache.setVertex(u, vertexState{kind: vertexMatched, mate: v})
			return u, nil
		}
		// If u got matched to someone else, the edge (v,u) is dead but v may
		// still match through a later edge; continue.
	}
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
	au, err := s.fetchNeighbors(u)
	if err != nil {
		return false, err
	}
	av, err := s.fetchNeighbors(v)
	if err != nil {
		return false, err
	}
	s.ctx.ChargeCompute(au.Len() + av.Len())
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

// fetchNeighbors reads v's edge-sorted list from the store and walks it in
// place: the value of a frozen store does not change under the view.
func (s *searcher) fetchNeighbors(v graph.NodeID) (codec.NodeList, error) {
	if !s.span.Contains(uint64(v)) {
		return codec.NodeList{}, errEscape
	}
	if s.budget > 0 {
		s.queries++
		if s.queries > s.budget {
			return codec.NodeList{}, errTruncated
		}
	}
	raw, ok, err := s.ctx.Lookup(uint64(v))
	if err != nil {
		return codec.NodeList{}, err
	}
	if !ok {
		return codec.NodeList{}, fmt.Errorf("matching: vertex %d missing from the key-value store", v)
	}
	return codec.ViewNodeIDs(raw)
}

func (s *searcher) lookupPublishedMate(v graph.NodeID) (graph.NodeID, bool, error) {
	if s.mateStore == nil {
		return graph.None, false, nil
	}
	raw, ok, err := s.mateStore.Get(uint64(v))
	if err != nil || !ok {
		return graph.None, false, err
	}
	mate, err := codec.DecodeNodeID(raw)
	if err != nil {
		return graph.None, false, err
	}
	return mate, true, nil
}
