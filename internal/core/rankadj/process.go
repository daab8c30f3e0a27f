package rankadj

import (
	"errors"
	"fmt"
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
)

// Names are the labels a process runs under.  Phase, round, store and plan
// names are part of the modeled contract (pinned stats and BENCH_smoke.json
// rows are keyed by them), so each process spells its own out; a run's tag
// is appended to every one of them but Shared and PlanKey.
type Names struct {
	Shuffle   string // shuffle phase ("DirectGraph")
	Search    string // search phase and round ("IsInMIS"); the spill stage adds "-spill", pass i of a truncated run "-pass<i>"
	Store     string // the job's list store ("directed-graph")
	Token     string // orders the spill stage after the local one ("mis-local")
	Published string // results published across the passes of a truncated run ("mis-status")
	Shared    string // the session-resident list store ("mis-directed-graph")
	PlanKey   string // plan-cache key of a serving query's search rounds ("mis-search")
}

// Limits bound one single-key search.  A recursion takes it by value and
// fetches every list it does not hold through Fetch.
type Limits struct {
	// Span confines the search to a key range (zero value: unconfined); a
	// fetch outside it fails with ErrEscape.
	Span dht.RangeSet
	// Budget is the number of fetches the search may make (0: unlimited); the
	// next one fails with ErrTruncated.
	Budget int
	// Published holds the results earlier passes of a truncated run resolved,
	// written with Process.Encode; nil when there is nothing to consult.
	Published *dht.Store

	queries int
}

// ErrEscape reports that a span-confined search needed a key outside its
// range, ErrTruncated that it exceeded its fetch budget.  Either way the
// vertex stays unresolved — the spill stage or the next pass finishes it —
// and whatever the search memoized before is a complete result and stays
// valid.
var (
	ErrEscape    = errors.New("rankadj: search escaped its key range")
	ErrTruncated = errors.New("rankadj: search truncated")
)

// Fetch reads v's list from the round's store and returns it as a view: the
// value of a frozen store does not change under it.
func (l *Limits) Fetch(ctx *ampc.Ctx, v graph.NodeID) (codec.NodeList, error) {
	if !l.Span.Contains(uint64(v)) {
		return codec.NodeList{}, ErrEscape
	}
	if l.Budget > 0 {
		l.queries++
		if l.queries > l.Budget {
			return codec.NodeList{}, ErrTruncated
		}
	}
	raw, ok, err := ctx.Lookup(uint64(v))
	if err != nil {
		return codec.NodeList{}, err
	}
	return view(uint64(v), raw, ok)
}

func view(key uint64, raw []byte, ok bool) (codec.NodeList, error) {
	if !ok {
		return codec.NodeList{}, fmt.Errorf("rankadj: vertex %d missing from the key-value store", key)
	}
	return codec.ViewNodeIDs(raw)
}

// Evaluator is the resumable form of a process's recursion over one block of
// vertices: it holds the lists fed so far and memoizes across resumptions,
// so re-walking a recursion after a fetch only revisits settled vertices.
type Evaluator[R any] interface {
	// Eval returns v's result, or the vertex whose list must be fed before
	// the recursion can continue (graph.None when the result is final).
	Eval(v graph.NodeID) (result R, miss graph.NodeID)
	// Feed hands over v's list.
	Feed(v graph.NodeID, list codec.NodeList)
}

// Process is one constant-round query process: what MIS (R is membership)
// and maximal matching (R is the mate) do not share.  Everything they do
// share — the substrate, the stages, the rounds, the pass loop, the serving
// split — is a method.  C is the per-machine cache type.
type Process[R, C any] struct {
	Names
	// Keep and Key select and order each vertex's list (see Lists).
	Keep func(v, u graph.NodeID) bool
	Key  func(v, u graph.NodeID) uint64
	// NewCache returns an empty cache: one per machine under
	// Config.EnableCache, else one per search — results are still memoized
	// within a query, just not shared across the machine's queries.
	NewCache func() C
	// Single resolves v by the recursion, fetching through lim.Fetch.  list is
	// v's own list as the shuffle produced it.
	Single func(ctx *ampc.Ctx, cache C, lim Limits, v graph.NodeID, list codec.NodeList) (R, error)
	// Block returns the recursion's resumable form for a block of size
	// vertices.
	Block func(ctx *ampc.Ctx, cache C, size int) Evaluator[R]
	// Encode is the published form of a result (truncated runs).
	Encode func(R) []byte
}

// substrate is what the searches of a graph start from: every vertex's
// rank-sorted list, the store serving them, the round that fills it and the
// per-machine key ranges that round writes.
type substrate struct {
	lists []codec.NodeList
	store *dht.Store
	write ampc.Round
	spans []dht.RangeSet
}

// substrate declares the keyspace (degree-proportional weights keep the
// per-machine load even under ampc.PlacementWeighted), runs the shuffle and
// opens the list store — the job's own, or the session-resident one.
func (p *Process[R, C]) substrate(rt *ampc.Job, g *graph.Graph, tag string, shared bool) (*substrate, error) {
	rt.SetOwnership(graph.DegreeWeights(g))
	lists, err := Lists(rt, p.Shuffle+tag, g, p.Keep, p.Key)
	if err != nil {
		return nil, err
	}
	open, name := rt.OpenStore, p.Store+tag
	if shared {
		open, name = rt.OpenSharedStore, p.Shared
	}
	store, err := open(name)
	if err != nil {
		return nil, err
	}
	n := len(lists)
	write := rt.WriteTableRound("kv-write"+tag, store, n, 1, func(item int) []byte {
		return lists[item].Encoded()
	})
	return &substrate{lists: lists, store: store, write: write, spans: rt.WriteRanges(n)}, nil
}

// Plan is the pipeline of one run prepared on a runtime.  The rounds declare
// their store dependencies, so they can be staged into a larger RunPipeline
// sequence next to another algorithm's rounds (the bench "pipeline"
// experiment overlaps the two processes this way).
type Plan struct {
	// Write stores the lists.  Search (the local stage) resolves every
	// vertex whose recursion stays inside the executing machine's owned key
	// range, reading only that range; Spill finishes the searches that
	// escaped, reading the whole store.  The local stage of machine m
	// therefore conflicts only with m's own write sub-round, which is what
	// lets RunPipeline overlap it with the other machines' writes.
	Write, Search, Spill ampc.Round
}

// Rounds returns the plan's rounds in execution order.
func (p *Plan) Rounds() []ampc.Round { return []ampc.Round{p.Write, p.Search, p.Spill} }

// NewPlan runs the shuffle for g and prepares the KV-write and the two search
// stages on rt; executing them in order fills out (one entry per vertex)
// exactly as Run does.
func (p *Process[R, C]) NewPlan(rt *ampc.Job, g *graph.Graph, out []R, tag string) (*Plan, error) {
	sub, err := p.substrate(rt, g, tag, false)
	if err != nil {
		return nil, err
	}
	local, spill := p.stages(rt, sub, out, tag)
	return &Plan{Write: sub.write, Search: local, Spill: spill}, nil
}

// search is the state the rounds of one run share: where results are
// published, and which vertices have one.
type search[R, C any] struct {
	p        *Process[R, C]
	rt       *ampc.Job
	sub      *substrate
	mu       sync.Mutex // guards out and resolved
	out      []R
	resolved []bool
}

func (p *Process[R, C]) newSearch(rt *ampc.Job, sub *substrate, out []R) *search[R, C] {
	return &search[R, C]{p: p, rt: rt, sub: sub, out: out, resolved: make([]bool, len(out))}
}

// caches returns the per-machine caches of one stage pair or pass, nil
// without Config.EnableCache.
func (s *search[R, C]) caches() []C {
	cfg := s.rt.Config()
	if !cfg.EnableCache {
		return nil
	}
	caches := make([]C, cfg.Machines)
	for i := range caches {
		caches[i] = s.p.NewCache()
	}
	return caches
}

func (s *search[R, C]) cache(caches []C, machine int) C {
	if caches == nil {
		return s.p.NewCache()
	}
	return caches[machine]
}

func (s *search[R, C]) publish(v graph.NodeID, r R) {
	s.mu.Lock()
	s.out[v] = r
	s.resolved[v] = true
	s.mu.Unlock()
}

// stages builds the local and spill search rounds over sub with fresh result
// state private to the pair — the one-shot plan and every serving query get
// theirs here.  The local stage reads the per-machine key ranges the write
// round declares, so local(m) depends on write(m) alone; a token orders every
// spill sub-round after every local one without naming any storage.
func (p *Process[R, C]) stages(rt *ampc.Job, sub *substrate, out []R, tag string) (local, spill ampc.Round) {
	s := p.newSearch(rt, sub, out)
	caches := s.caches()
	stage := func(name string, spans []dht.RangeSet) ampc.Round {
		if rt.Config().Batch {
			// Fan-out reads travel as shard-grouped batches.
			return s.blockRound(name, caches, spans)
		}
		return s.vertexRound(name, caches, spans, Limits{}, nil)
	}
	local = stage(p.Search+tag, sub.spans)
	spill = stage(p.Search+"-spill"+tag, nil)
	tok := ampc.NewToken(p.Token + tag)
	local.Reads = []ampc.Access{ampc.RangedBy(sub.store, sub.spans)}
	local.Writes = []ampc.Access{{Token: tok}}
	spill.Reads = []ampc.Access{{Token: tok}}
	return local, spill
}

// vertexRound builds one single-key search round: every unresolved vertex
// runs the recursion against the frozen list store, one lookup per list it
// expands.  With spans set (the local stage) machine m's searches are
// confined to spans[m]; a search that escapes, or exceeds lim's budget,
// leaves its vertex unresolved.  With published set (a truncated pass) every
// result is also written there.
func (s *search[R, C]) vertexRound(name string, caches []C, spans []dht.RangeSet, lim Limits, published *dht.Store) ampc.Round {
	n := len(s.sub.lists)
	return ampc.Round{
		Name:        name,
		Items:       n,
		Read:        s.sub.store,
		Partitioner: s.rt.OwnerPartitioner(n),
		Body: func(ctx *ampc.Ctx, item int) error {
			if s.resolved[item] {
				return nil
			}
			lim := lim
			if spans != nil {
				lim.Span = spans[ctx.Machine]
			}
			v := graph.NodeID(item)
			r, err := s.p.Single(ctx, s.cache(caches, ctx.Machine), lim, v, s.sub.lists[item])
			if errors.Is(err, ErrEscape) || errors.Is(err, ErrTruncated) {
				return nil
			}
			if err != nil {
				return err
			}
			s.publish(v, r)
			if published == nil {
				return nil
			}
			return ctx.Write(published, uint64(item), s.p.Encode(r))
		},
	}
}

// block is what the searches of one block share, behind one pointer.
type block[R, C any] struct {
	s    *search[R, C]
	eval Evaluator[R]
	span dht.RangeSet
}

// vertexSearch is the search for one vertex as a pull-based iterator; a
// block keeps its searches in one slice.
type vertexSearch[R, C any] struct {
	b *block[R, C]
	v graph.NodeID
}

func (it *vertexSearch[R, C]) Pull() (uint64, bool) {
	b := it.b
	r, miss := b.eval.Eval(it.v)
	if miss != graph.None {
		if !b.span.Contains(uint64(miss)) {
			return 0, false // escaped; the spill stage finishes v
		}
		return uint64(miss), true
	}
	b.s.publish(it.v, r)
	return 0, false
}

// blockRound builds one streaming search round (Config.Batch).  The
// single-key round pays one store round trip per list it expands; here a
// whole block of vertices runs as pull-based iterators (ampc.Stream): every
// search runs until it needs a list the block does not hold, the block's
// missing lists are fetched with one shard-grouped batch read, and the
// searches resume.  The function computed is unchanged, only the grouping of
// requests differs.  With spans set, a search that suspends on a key outside
// spans[machine] escapes: its iterator completes without resolving the
// vertex.
func (s *search[R, C]) blockRound(name string, caches []C, spans []dht.RangeSet) ampc.Round {
	n := len(s.sub.lists)
	size := s.rt.Config().BatchSize
	return ampc.Round{
		Name:        name,
		Items:       ampc.NumBlocks(n, size),
		Read:        s.sub.store,
		Partitioner: s.rt.BlockOwnerPartitioner(size, n),
		Body: func(ctx *ampc.Ctx, blk int) error {
			lo, hi := ampc.BlockBounds(blk, size, n)
			b := &block[R, C]{s: s, eval: s.p.Block(ctx, s.cache(caches, ctx.Machine), hi-lo)}
			if spans != nil {
				b.span = spans[ctx.Machine]
			}
			searches := make([]vertexSearch[R, C], 0, hi-lo)
			its := make([]ampc.Iterator, 0, hi-lo)
			for v := lo; v < hi; v++ {
				if s.resolved[v] {
					continue
				}
				b.eval.Feed(graph.NodeID(v), s.sub.lists[v])
				searches = append(searches, vertexSearch[R, C]{b: b, v: graph.NodeID(v)})
				its = append(its, &searches[len(searches)-1])
			}
			return ctx.Stream(0, its, func(k uint64, raw []byte, ok bool) error {
				list, err := view(k, raw, ok)
				if err != nil {
					return err
				}
				b.eval.Feed(graph.NodeID(k), list)
				return nil
			})
		},
	}
}

// Run computes the process on g into out (one entry per vertex, preset to
// the unresolved value) and returns the number of search rounds.  tag
// suffixes every name, so several runs can share one runtime.
//
// With budget 0 every search resolves in one pass, so the KV-write and the
// two search stages form one static sequence with a declared store
// dependency: RunStaged executes it at per-round barriers by default and as
// one dependency-scheduled pipeline under Config.Pipeline, with identical
// results.  A positive budget is the O(1/ε)-round variant: every search is
// truncated after budget fetches and unresolved vertices retry in later
// passes against the results published by earlier ones.
func (p *Process[R, C]) Run(rt *ampc.Job, g *graph.Graph, out []R, budget int, tag string) (int, error) {
	if budget == 0 {
		plan, err := p.NewPlan(rt, g, out, tag)
		if err != nil {
			return 0, err
		}
		return 1, rt.RunStaged([]ampc.StagedRound{
			{Phase: "KV-Write" + tag, Round: plan.Write},
			{Phase: plan.Search.Name, Round: plan.Search},
			{Phase: plan.Spill.Name, Round: plan.Spill},
		})
	}

	sub, err := p.substrate(rt, g, tag, false)
	if err != nil {
		return 0, err
	}
	if err := rt.Phase("KV-Write"+tag, func() error { return rt.Run(sub.write) }); err != nil {
		return 0, err
	}
	// One store is cumulative across passes, which is equivalent to the
	// per-round stores of the model since results never change once set.
	published, err := rt.OpenStore(p.Published + tag)
	if err != nil {
		return 0, err
	}
	s := p.newSearch(rt, sub, out)
	name := p.Search + tag
	pass, stalled := 0, -1
	for {
		remaining := 0
		for _, done := range s.resolved {
			if !done {
				remaining++
			}
		}
		if remaining == 0 {
			return max(pass, 1), nil
		}
		if remaining == stalled {
			// Engineering safeguard beyond the paper's analysis: a pass that
			// resolved nothing would repeat itself, so double the budget.
			budget *= 2
		}
		stalled = remaining
		pass++
		// The truncated passes stay single-key whatever Config.Batch says, so
		// the per-search budget keeps its meaning: fetches.
		lim := Limits{Budget: budget}
		if pass > 1 {
			name = fmt.Sprintf("%s%s-pass%d", p.Search, tag, pass)
			lim.Published = published
		}
		round := s.vertexRound(name, s.caches(), nil, lim, published)
		round.Writes = []ampc.Access{{Store: published}}
		if pass > 1 {
			round.Reads = []ampc.Access{{Store: published}}
		}
		if err := rt.Phase(name, func() error { return rt.Run(round) }); err != nil {
			return 0, err
		}
		if pass > 64 {
			return 0, fmt.Errorf("rankadj: truncated %s did not converge after %d passes", p.Search, pass)
		}
	}
}

// Shared is the per-session substrate of a process: the shuffle's lists and
// the list store, built once and reused by every query job of the session.
// This is the serving-layer split of the one-shot Run: the store stays
// resident (ampc.Session.OpenSharedStore) and frozen, so N concurrent jobs
// pay for the shuffle and the KV-write exactly once, while each Run executes
// only the search rounds, with job-private result state.
type Shared[R, C any] struct {
	p   *Process[R, C]
	sub *substrate
}

// NewShared prepares the shared substrate on rt's session, charging the
// shuffle and the write to rt's job (callers typically use a dedicated
// preparation job).  Calling it again on the same session reuses the
// already-filled store and skips the write.
func (p *Process[R, C]) NewShared(rt *ampc.Job, g *graph.Graph) (*Shared[R, C], error) {
	sub, err := p.substrate(rt, g, "", true)
	if err != nil {
		return nil, err
	}
	if !sub.store.Frozen() {
		if err := rt.Phase("KV-Write", func() error { return rt.Run(sub.write) }); err != nil {
			return nil, err
		}
		sub.store.Freeze()
	}
	return &Shared[R, C]{p: p, sub: sub}, nil
}

// Run executes one query as a job on rt against the shared substrate, into
// out.  Any number of Run calls may proceed concurrently on jobs of the same
// session; every one computes what the one-shot Run does.  The search rounds
// are compiled under the process's plan key, so repeated queries hit the
// session's plan cache instead of re-deriving the conflict analysis.
func (sh *Shared[R, C]) Run(rt *ampc.Job, out []R) error {
	local, spill := sh.p.stages(rt, sh.sub, out, "")
	return rt.RunPlan(rt.CompilePlan(sh.p.PlanKey, []ampc.StagedRound{
		{Phase: local.Name, Round: local},
		{Phase: spill.Name, Round: spill},
	}))
}

// Len returns the number of vertices of the substrate's graph.
func (sh *Shared[R, C]) Len() int { return len(sh.sub.lists) }
