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
// Two optimizations from the paper are supported through ampc.Config:
// per-machine caching of vertex statuses (EnableCache) and multithreading
// (Threads).  The default mode mirrors the paper's implementation, which
// resolves every vertex in a single search round (2 AMPC rounds in total);
// RunTruncated implements the theoretical O(1/ε)-round variant that truncates
// each search at the per-machine space budget and finishes unresolved
// vertices in later rounds.
package mis

import (
	"errors"
	"fmt"
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/core/rankadj"
	"ampcgraph/internal/dht"
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

// Run computes the MIS of g with the paper's 2-round AMPC implementation.
func Run(g *graph.Graph, cfg ampc.Config) (*Result, error) {
	return run(g, cfg, 0)
}

// RunTruncated computes the MIS with the theoretical O(1/ε)-round variant:
// every search is truncated after the per-machine space budget of queries,
// unresolved vertices retry in later rounds against the statuses published by
// earlier rounds.
func RunTruncated(g *graph.Graph, cfg ampc.Config) (*Result, error) {
	cfgD := cfg.WithDefaults()
	budget := cfgD.SpaceBudget(g.NumNodes())
	return run(g, cfg, budget)
}

// directGraph runs the DirectGraph shuffle (Step 1): every vertex keeps only
// its neighbors of higher priority (earlier rank), sorted by rank.  In the
// dataflow implementation this is the single shuffle of the algorithm; here
// it is one shuffle stage on the worker pool (rankadj.Lists).
func directGraph(rt *ampc.Runtime, g *graph.Graph, prio []uint64) ([]codec.NodeList, error) {
	earlier := func(v, u graph.NodeID) bool { return prio[u] < prio[v] || prio[u] == prio[v] && u < v }
	return rankadj.Lists(rt, "DirectGraph", g, earlier, func(_, u graph.NodeID) uint64 { return prio[u] })
}

// directedStore runs the DirectGraph shuffle and prepares the store holding
// the directed graph plus the KV-write round that fills it — the shared
// prefix of the single-pass plan and the truncated driver.
func directedStore(rt *ampc.Runtime, g *graph.Graph, prio []uint64) ([]codec.NodeList, *dht.Store, ampc.Round, error) {
	directed, err := directGraph(rt, g, prio)
	if err != nil {
		return nil, nil, ampc.Round{}, err
	}
	store, err := rt.OpenStore("directed-graph")
	if err != nil {
		return nil, nil, ampc.Round{}, err
	}
	write := rt.WriteTableRound("kv-write", store, g.NumNodes(), 1, func(item int) []byte {
		return directed[item].Encoded()
	})
	return directed, store, write, nil
}

// Plan is the 2-round MIS pipeline prepared on an existing runtime: the
// KV-write round producing the directed-graph store and the IsInMIS search
// round reading it.  The rounds declare their store dependency, so they can
// be staged into a larger RunPipeline sequence next to another algorithm's
// rounds — the bench "pipeline" experiment fuses them with the maximal
// matching rounds to overlap independent rounds across algorithms.
type Plan struct {
	// Write stores the directed adjacency lists.  Search (the local stage)
	// resolves every vertex whose recursion stays inside the executing
	// machine's owned key range, reading only that range; Spill finishes the
	// searches that escaped their range, reading the whole store.  The local
	// stage of machine m therefore conflicts only with m's own write
	// sub-round, which is what lets RunPipeline overlap it with the other
	// machines' writes (and with another algorithm's rounds).
	Write, Search, Spill ampc.Round
	// InMIS is filled by the two search stages together.
	InMIS []bool
}

// Rounds returns the plan's rounds in execution order, ready to be staged
// into a RunPipeline sequence (possibly interleaved with another plan's).
func (p *Plan) Rounds() []ampc.Round { return []ampc.Round{p.Write, p.Search, p.Spill} }

// NewPlan runs the host-side DirectGraph shuffle for g and prepares the
// KV-write and search rounds on rt.  Executing the two rounds (in order,
// with the declared dependency respected) completes the computation exactly
// as Run does.
func NewPlan(rt *ampc.Runtime, g *graph.Graph) (*Plan, error) {
	cfgD := rt.Config()
	n := g.NumNodes()
	rt.SetOwnership(graph.DegreeWeights(g))
	prio := rng.VertexPriorities(cfgD.Seed, n)
	directed, store, write, err := directedStore(rt, g, prio)
	if err != nil {
		return nil, err
	}
	local, spill, inMIS := searchStages(rt, store, directed, prio, rt.WriteRanges(n))
	return &Plan{Write: write, Search: local, Spill: spill, InMIS: inMIS}, nil
}

// searchStages builds the local and spill IsInMIS search rounds over the
// directed-graph store, with fresh result state (statuses, caches, the
// returned InMIS vector) private to the pair — the one-shot plan and every
// serving query (Shared.Run) get theirs here.  The local stage reads the
// per-machine key ranges spans — the ranges the write round declares — so
// local(m) depends on write(m) alone; a token orders every spill sub-round
// after every local one without naming any storage.
func searchStages(rt *ampc.Runtime, store *dht.Store, directed []codec.NodeList, prio []uint64,
	spans []dht.RangeSet) (local, spill ampc.Round, inMIS []bool) {
	cfgD := rt.Config()
	n := len(directed)
	caches := make([]*statusCache, cfgD.Machines)
	if cfgD.EnableCache {
		for i := range caches {
			caches[i] = newStatusCache()
		}
	}
	inMIS = make([]bool, n)
	resolved := make([]bool, n)
	mu := new(sync.Mutex)
	if cfgD.Batch {
		// Streaming block evaluation: fan-out reads travel as
		// shard-grouped batches (see batch.go).
		local = batchSearchRound(rt, "IsInMIS", store, directed, caches, inMIS, resolved, mu, spans)
		spill = batchSearchRound(rt, "IsInMIS-spill", store, directed, caches, inMIS, resolved, mu, nil)
	} else {
		local = searchRound(rt, "IsInMIS", store, directed, prio, caches, inMIS, resolved, mu, spans)
		spill = searchRound(rt, "IsInMIS-spill", store, directed, prio, caches, inMIS, resolved, mu, nil)
	}
	tok := ampc.NewToken("mis-local")
	local.Reads = []ampc.Access{ampc.RangedBy(store, spans)}
	local.Writes = []ampc.Access{{Token: tok}}
	spill.Reads = []ampc.Access{{Token: tok}}
	return local, spill, inMIS
}

func run(g *graph.Graph, cfg ampc.Config, budget int) (*Result, error) {
	rt := ampc.New(cfg)
	defer rt.Close()
	cfgD := rt.Config()
	n := g.NumNodes()
	// Vertex-degree placement weights: under ampc.PlacementWeighted the
	// partitioners and the shard placement both follow the degree-balanced
	// contiguous partition, so the machine owning the hubs is no longer the
	// straggler of every round.
	rt.SetOwnership(graph.DegreeWeights(g))

	if budget == 0 {
		// Untruncated searches resolve in a single pass, so the KV-write
		// and the search form one static round sequence with a declared
		// store dependency.  RunStaged executes them at per-round barriers
		// by default and as one dependency-scheduled pipeline under
		// Config.Pipeline — with byte-identical results either way.
		plan, err := NewPlan(rt, g)
		if err != nil {
			return nil, err
		}
		err = rt.RunStaged([]ampc.StagedRound{
			{Phase: "KV-Write", Round: plan.Write},
			{Phase: "IsInMIS", Round: plan.Search},
			{Phase: "IsInMIS-spill", Round: plan.Spill},
		})
		if err != nil {
			return nil, err
		}
		return &Result{InMIS: plan.InMIS, SearchRounds: 1, Stats: rt.Stats()}, nil
	}

	// Truncated variant (RunTruncated): searches are budgeted and retried
	// across passes, so the driver stays dynamic.  The single-key path is
	// kept so the per-search query budget retains its original meaning.
	prio := rng.VertexPriorities(cfgD.Seed, n)
	directed, store, writeRound, err := directedStore(rt, g, prio)
	if err != nil {
		return nil, err
	}
	inMIS := make([]bool, n)
	resolved := make([]bool, n)
	result := &Result{InMIS: inMIS}
	err = rt.Phase("KV-Write", func() error { return rt.Run(writeRound) })
	if err != nil {
		return nil, err
	}

	// Cross-round status store: statuses resolved in round i are published
	// here and consulted by the searches of round i+1 (the store is
	// cumulative across rounds, which is equivalent to the per-round stores
	// of the model since statuses never change once set).
	statusStore, err := rt.OpenStore("mis-status")
	if err != nil {
		return nil, err
	}
	pass := 0
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
		caches := make([]*statusCache, cfgD.Machines)
		if cfgD.EnableCache {
			for i := range caches {
				caches[i] = newStatusCache()
			}
		}
		var mu sync.Mutex
		phaseName := "IsInMIS"
		if pass > 1 {
			phaseName = fmt.Sprintf("IsInMIS-pass%d", pass)
		}
		err = rt.Phase(phaseName, func() error {
			round := ampc.Round{
				Name:        phaseName,
				Items:       n,
				Read:        store,
				Writes:      []ampc.Access{{Store: statusStore}},
				Partitioner: rt.OwnerPartitioner(n),
				Body: func(ctx *ampc.Ctx, item int) error {
					if resolved[item] {
						return nil
					}
					cache := caches[ctx.Machine]
					if cache == nil {
						// Without the caching optimization, statuses are still
						// memoized within a single query; they are just not
						// shared across queries on the machine, so every
						// vertex re-fetches from the key-value store.
						cache = newStatusCache()
					}
					s := &searcher{
						ctx:    ctx,
						cache:  cache,
						prio:   prio,
						budget: budget,
					}
					if pass > 1 {
						// Consult the statuses published by earlier rounds.
						s.statusStore = statusStore
					}
					in, err := s.inMIS(graph.NodeID(item), directed[item])
					if errors.Is(err, errTruncated) {
						return nil // retry next pass
					}
					if err != nil {
						return err
					}
					mu.Lock()
					inMIS[item] = in
					resolved[item] = true
					mu.Unlock()
					val := byte(statusOut)
					if in {
						val = byte(statusIn)
					}
					return ctx.Write(statusStore, uint64(item), []byte{val})
				},
			}
			if pass > 1 {
				round.Reads = []ampc.Access{{Store: statusStore}}
			}
			return rt.Run(round)
		})
		if err != nil {
			return nil, err
		}
		result.SearchRounds = pass
		if pass > 64 {
			return nil, fmt.Errorf("mis: truncated search did not converge after %d passes", pass)
		}
	}
	if result.SearchRounds == 0 {
		result.SearchRounds = 1
	}
	result.Stats = rt.Stats()
	return result, nil
}

// searchRound builds one stage of the single-key IsInMIS search: every
// unresolved vertex runs the recursive query process of Yoshida et al.
// against the frozen directed-graph store.  With spans set (the local stage)
// each machine's searches are confined to spans[machine]: a recursion that
// needs a key outside the range escapes and is left unresolved for the spill
// stage, which passes spans == nil and finishes the remainder against the
// whole store.
func searchRound(rt *ampc.Runtime, name string, store *dht.Store, directed []codec.NodeList, prio []uint64,
	caches []*statusCache, inMIS, resolved []bool, mu *sync.Mutex, spans []dht.RangeSet) ampc.Round {
	n := len(directed)
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
				// Without the caching optimization, statuses are still
				// memoized within a single query; they are just not shared
				// across queries on the machine, so every vertex re-fetches
				// from the key-value store.
				cache = newStatusCache()
			}
			s := &searcher{ctx: ctx, cache: cache, prio: prio}
			if spans != nil {
				s.span = spans[ctx.Machine]
			}
			in, err := s.inMIS(graph.NodeID(item), directed[item])
			if errors.Is(err, errEscape) {
				return nil // finished by the spill stage
			}
			if err != nil {
				return err
			}
			mu.Lock()
			inMIS[item] = in
			resolved[item] = true
			mu.Unlock()
			return nil
		},
	}
}

// errTruncated reports that a search exceeded its query budget.
var errTruncated = fmt.Errorf("mis: search truncated")

// errEscape reports that a span-confined search needed a key outside its
// range; the vertex stays unresolved and the spill stage finishes it.
// Statuses memoized before the escape are complete results and stay valid.
var errEscape = fmt.Errorf("mis: search escaped its key range")

// searcher runs the recursive IsInMIS query process for one work item.
type searcher struct {
	ctx   *ampc.Ctx
	cache *statusCache
	prio  []uint64
	// span confines the search to a key range (zero value: unconfined);
	// fetching a key outside it aborts the search with errEscape.
	span        dht.RangeSet
	budget      int // 0 = unlimited
	queries     int
	statusStore *dht.Store
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
// traffic change (ROADMAP item 2).
func (s *searcher) inMIS(v graph.NodeID, neighbors codec.NodeList) (bool, error) {
	if st := s.cache.get(v); st != statusUnknown {
		return st == statusIn, nil
	}
	if s.statusStore != nil {
		// Statuses resolved in earlier rounds of the truncated variant.
		if raw, ok, err := s.ctxLookupStatus(v); err != nil {
			return false, err
		} else if ok {
			in := raw == statusIn
			s.cache.set(v, raw)
			return in, nil
		}
	}
	if neighbors.Len() == 0 {
		var err error
		neighbors, err = s.fetchNeighbors(v)
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

// fetchNeighbors reads v's directed list from the store and walks it in
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
		return codec.NodeList{}, fmt.Errorf("mis: vertex %d missing from the key-value store", v)
	}
	return codec.ViewNodeIDs(raw)
}

func (s *searcher) ctxLookupStatus(v graph.NodeID) (status, bool, error) {
	raw, ok, err := s.statusStore.Get(uint64(v))
	if err != nil || !ok || len(raw) == 0 {
		return statusUnknown, false, err
	}
	return status(raw[0]), true, nil
}
