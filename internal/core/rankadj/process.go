package rankadj

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
)

// Names are the labels a process runs under.  Phase, round and store names
// are part of the modeled contract (pinned stats and BENCH_smoke.json rows
// are keyed by them), so each process spells its own out; a run's tag is
// appended to every one of them but Shared.
type Names struct {
	Shuffle   string // shuffle phase ("DirectGraph")
	Search    string // search phase and round ("IsInMIS"); pass i of a truncated run adds "-pass<i>"
	Store     string // the job's list store ("directed-graph")
	Published string // results published across the passes of a truncated run ("mis-status")
	Shared    string // the session-resident list store ("mis-directed-graph")
}

// Limits bound one search and say where it reads.  A recursion takes it by
// value, fetches every list it does not hold through Fetch and charges its
// merge scans through ChargeScan.
type Limits struct {
	// Budget is the number of fetches the search may make (0: unlimited); the
	// next one fails with ErrTruncated.
	Budget int
	// Published holds the results earlier passes of a truncated run resolved,
	// written with Process.Encode; nil when there is nothing to consult.
	Published *dht.Store

	queries int
	// held is the streaming round's block; nil in the single-key round.
	held *held
}

// held is one streaming block's state: the lists fed so far, the vertex the
// last search suspended on and the scans charged (made at the first charge).
type held struct {
	lists   map[graph.NodeID]codec.NodeList
	miss    graph.NodeID
	scanned map[uint64]struct{}
}

// ErrTruncated reports that a search exceeded its fetch budget.  The vertex
// stays unresolved — the next pass finishes it — and whatever the search
// memoized before is a complete result and stays valid.
var ErrTruncated = errors.New("rankadj: search truncated")

// errSuspended reports that a streaming search needs a list its block does
// not hold, the one held.miss names; memoized results stay valid.
var errSuspended = errors.New("rankadj: search suspended")

// Fetch returns v's list as a view: in the streaming round from the block,
// or errSuspended when the block does not hold it; in the single-key round
// read from the round's store, whose frozen value does not change under it.
func (l *Limits) Fetch(ctx *ampc.Ctx, v graph.NodeID) (codec.NodeList, error) {
	if h := l.held; h != nil {
		list, ok := h.lists[v]
		if !ok {
			h.miss = v
			return codec.NodeList{}, errSuspended
		}
		return list, nil
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

// ChargeScan charges n units for the scan key names: on every call in the
// single-key round, once per block in the streaming round, where a search
// that runs again from its root repeats its scans.
func (l *Limits) ChargeScan(ctx *ampc.Ctx, key uint64, n int) {
	if h := l.held; h != nil {
		if _, done := h.scanned[key]; done {
			return
		}
		if h.scanned == nil {
			h.scanned = make(map[uint64]struct{})
		}
		h.scanned[key] = struct{}{}
	}
	ctx.ChargeCompute(n)
}

func view(key uint64, raw []byte, ok bool) (codec.NodeList, error) {
	if !ok {
		return codec.NodeList{}, fmt.Errorf("rankadj: vertex %d missing from the key-value store", key)
	}
	return codec.ViewNodeIDs(raw)
}

// Process is one constant-round query process: what MIS (R is membership)
// and maximal matching (R is the mate) do not share.  Everything they do
// share — the substrate, the search round, the pass loop, the serving
// split — is a method.  C is the per-machine cache type.
type Process[R, C any] struct {
	Names
	// Keep and Key select and order each vertex's list (see Lists).
	Keep func(v, u graph.NodeID) bool
	Key  func(v, u graph.NodeID) uint64
	// NewCache returns an empty cache expecting about n vertices: one per
	// machine under Config.EnableCache, sized from the graph's vertex count
	// n; else one per search with n = 0, which must cost no more than an
	// empty map until it is filled — results are still memoized within a
	// query, just not shared across the machine's queries.
	NewCache func(n int) C
	// Single resolves v by the recursion, which both rounds run: it fetches
	// through lim.Fetch, passing every error up, charges scans through
	// lim.ChargeScan and a vertex's unit where it resolves it, and memoizes
	// only resolved results.  list is v's own list from the shuffle.
	Single func(ctx *ampc.Ctx, cache C, lim Limits, v graph.NodeID, list codec.NodeList) (R, error)
	// Encode is the published form of a result (truncated runs).
	Encode func(R) []byte
}

// substrate is what the searches of a graph start from: every vertex's
// rank-sorted list, the store serving them and the round that fills it.
type substrate struct {
	lists []codec.NodeList
	store *dht.Store
	write ampc.Round
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
	write := rt.WriteTableRound("kv-write"+tag, store, len(lists), 1, func(item int) []byte {
		return lists[item].Encoded()
	})
	return &substrate{lists: lists, store: store, write: write}, nil
}

// Plan is the round sequence of one run prepared on a runtime, for callers
// that run the rounds themselves, one at a time or between other work.
type Plan struct {
	// Write stores the lists; Search resolves every vertex against them.
	Write, Search ampc.Round
}

// Rounds returns the plan's rounds in execution order.
func (p *Plan) Rounds() []ampc.Round { return []ampc.Round{p.Write, p.Search} }

// NewPlan runs the shuffle for g and prepares the KV-write and the search
// round on rt; executing them in order fills out (one entry per vertex)
// exactly as Run does.
func (p *Process[R, C]) NewPlan(rt *ampc.Job, g *graph.Graph, out []R, tag string) (*Plan, error) {
	sub, err := p.substrate(rt, g, tag, false)
	if err != nil {
		return nil, err
	}
	return &Plan{Write: sub.write, Search: p.searchRound(rt, sub, out, tag)}, nil
}

// search is the state the rounds of one run share: where results are
// published, and which vertices have one.
type search[R, C any] struct {
	p        *Process[R, C]
	rt       *ampc.Job
	sub      *substrate
	mu       sync.Mutex // guards out, resolved and done
	out      []R
	resolved []bool
	done     int // resolved vertices
}

func (p *Process[R, C]) newSearch(rt *ampc.Job, sub *substrate, out []R) *search[R, C] {
	return &search[R, C]{p: p, rt: rt, sub: sub, out: out, resolved: make([]bool, len(out))}
}

// caches returns the per-machine caches of one search round or pass, nil
// without Config.EnableCache.
func (s *search[R, C]) caches() []C {
	cfg := s.rt.Config()
	if !cfg.EnableCache {
		return nil
	}
	caches := make([]C, cfg.Machines)
	for i := range caches {
		caches[i] = s.p.NewCache(len(s.out))
	}
	return caches
}

func (s *search[R, C]) cache(caches []C, machine int) C {
	if caches == nil {
		return s.p.NewCache(0)
	}
	return caches[machine]
}

func (s *search[R, C]) publish(v graph.NodeID, r R) {
	s.mu.Lock()
	s.out[v] = r
	s.resolved[v] = true
	s.done++
	s.mu.Unlock()
}

// searchRound builds the search round over sub with fresh result state
// private to it — the one-shot plan and every serving query get theirs here.
func (p *Process[R, C]) searchRound(rt *ampc.Job, sub *substrate, out []R, tag string) ampc.Round {
	s := p.newSearch(rt, sub, out)
	if rt.Config().Batch {
		// Fan-out reads travel as shard-grouped batches.
		return s.blockRound(p.Search+tag, s.caches())
	}
	return s.vertexRound(p.Search+tag, s.caches(), Limits{})
}

// vertexRound builds one single-key search round: every unresolved vertex
// runs the recursion against the frozen list store, one lookup per list it
// expands.  A search that exceeds lim's budget leaves its vertex unresolved.
func (s *search[R, C]) vertexRound(name string, caches []C, lim Limits) ampc.Round {
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
			v := graph.NodeID(item)
			r, err := s.p.Single(ctx, s.cache(caches, ctx.Machine), lim, v, s.sub.lists[item])
			if errors.Is(err, ErrTruncated) {
				return nil
			}
			if err != nil {
				return err
			}
			s.publish(v, r)
			return nil
		},
	}
}

// block is what the searches of one streaming block share, behind one
// pointer: the lists it holds and an error a search returned.
type block[R, C any] struct {
	s     *search[R, C]
	ctx   *ampc.Ctx
	cache C
	held  held
	err   error
}

// vertexSearch is the search for one vertex as a pull-based iterator; a
// block keeps its searches in one slice.  Each Pull runs the recursion from
// the root and suspends on the list the block misses.
type vertexSearch[R, C any] struct {
	b *block[R, C]
	v graph.NodeID
}

func (it *vertexSearch[R, C]) Pull() (uint64, bool) {
	b := it.b
	r, err := b.s.p.Single(b.ctx, b.cache, Limits{held: &b.held}, it.v, b.s.sub.lists[it.v])
	switch {
	case errors.Is(err, errSuspended):
		return uint64(b.held.miss), true
	case err != nil:
		b.err = err
	default:
		b.s.publish(it.v, r)
	}
	return 0, false
}

// blockRound builds one streaming search round (Config.Batch).  The
// single-key round pays one store round trip per list it expands; here a
// whole block of vertices runs as pull-based iterators (ampc.Stream): every
// search runs the same recursion until it needs a list the block does not
// hold, the block's missing lists are fetched with one shard-grouped batch
// read, and the searches run again.  The function computed is unchanged,
// only the grouping of requests differs.
func (s *search[R, C]) blockRound(name string, caches []C) ampc.Round {
	n := len(s.sub.lists)
	size := s.rt.Config().BatchSize
	return ampc.Round{
		Name:        name,
		Items:       ampc.NumBlocks(n, size),
		Read:        s.sub.store,
		Partitioner: s.rt.BlockOwnerPartitioner(size, n),
		Body: func(ctx *ampc.Ctx, blk int) error {
			lo, hi := ampc.BlockBounds(blk, size, n)
			b := &block[R, C]{s: s, ctx: ctx, cache: s.cache(caches, ctx.Machine),
				held: held{lists: make(map[graph.NodeID]codec.NodeList, hi-lo)}}
			searches := make([]vertexSearch[R, C], 0, hi-lo)
			its := make([]ampc.Iterator, 0, hi-lo)
			for v := lo; v < hi; v++ {
				if s.resolved[v] {
					continue
				}
				b.held.lists[graph.NodeID(v)] = s.sub.lists[v]
				searches = append(searches, vertexSearch[R, C]{b: b, v: graph.NodeID(v)})
				its = append(its, &searches[len(searches)-1])
			}
			err := ctx.Stream(0, its, func(k uint64, raw []byte, ok bool) error {
				list, err := view(k, raw, ok)
				b.held.lists[graph.NodeID(k)] = list
				return err
			})
			return cmp.Or(err, b.err)
		},
	}
}

// Run computes the process on g into out (one entry per vertex, preset to
// the unresolved value) and returns the number of search rounds.  tag
// suffixes every name, so several runs can share one runtime.
//
// With budget 0 every search resolves in one pass, so the KV-write and the
// search round form one static sequence, which RunStaged executes a round at
// a time.  A positive budget is the O(1/ε)-round variant: every
// search is truncated after budget fetches and unresolved vertices retry in
// later passes against the results published by earlier ones.  Each pass
// but the last then publishes what it resolved in a round of its own: a pass
// never reads what it writes, so its result does not depend on timing.
func (p *Process[R, C]) Run(rt *ampc.Job, g *graph.Graph, out []R, budget int, tag string) (int, error) {
	if budget == 0 {
		plan, err := p.NewPlan(rt, g, out, tag)
		if err != nil {
			return 0, err
		}
		return 1, rt.RunStaged([]ampc.StagedRound{
			{Phase: "KV-Write" + tag, Round: plan.Write},
			{Phase: plan.Search.Name, Round: plan.Search},
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
	prior := make([]bool, len(out)) // resolved before the pass
	name := p.Search + tag
	lim := Limits{Budget: budget}
	for pass := 1; s.done < len(out); pass++ {
		if pass > 64 {
			return 0, fmt.Errorf("rankadj: truncated %s did not converge in 64 passes", p.Search)
		}
		// The truncated passes stay single-key whatever Config.Batch says, so
		// the per-search budget keeps its meaning: fetches.
		if pass > 1 {
			name = fmt.Sprintf("%s%s-pass%d", p.Search, tag, pass)
			lim.Published = published
		}
		before := s.done
		copy(prior, s.resolved)
		search := s.vertexRound(name, s.caches(), lim)
		if err := rt.Phase(name, func() error { return rt.Run(search) }); err != nil {
			return 0, err
		}
		if s.done == len(out) {
			return pass, nil // no later pass reads what this one resolved
		}
		if s.done == before {
			// Engineering safeguard beyond the paper's analysis: a pass that
			// resolved nothing would repeat itself, so double the budget.
			lim.Budget *= 2
		}
		publish := ampc.Round{
			Name:        name + "-publish",
			Items:       len(out),
			Partitioner: rt.OwnerPartitioner(len(out)),
			Body: func(ctx *ampc.Ctx, item int) error {
				if !s.resolved[item] || prior[item] {
					return nil
				}
				return ctx.Write(published, uint64(item), p.Encode(out[item]))
			},
		}
		if err := rt.Phase(publish.Name, func() error { return rt.Run(publish) }); err != nil {
			return 0, err
		}
	}
	return 1, nil
}

// Shared is the per-session substrate of a process: the shuffle's lists and
// the list store, built once and reused by every query job of the session.
// This is the serving-layer split of the one-shot Run: the store stays
// resident (ampc.Session.OpenSharedStore) and frozen, so N concurrent jobs
// pay for the shuffle and the KV-write exactly once, while each Run executes
// only the search round, with job-private result state.
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
		if err := sub.store.Freeze(); err != nil {
			return nil, fmt.Errorf("rankadj: freezing shared %s store: %w", p.Search, err)
		}
	}
	return &Shared[R, C]{p: p, sub: sub}, nil
}

// Run executes one query as a job on rt against the shared substrate, into
// out.  Any number of Run calls may proceed concurrently on jobs of the same
// session; every one computes what the one-shot Run does.
func (sh *Shared[R, C]) Run(rt *ampc.Job, out []R) error {
	round := sh.p.searchRound(rt, sh.sub, out, "")
	return rt.RunStaged([]ampc.StagedRound{{Phase: round.Name, Round: round}})
}

// Len returns the number of vertices of the substrate's graph.
func (sh *Shared[R, C]) Len() int { return len(sh.sub.lists) }
