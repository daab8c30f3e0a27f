package matching

import (
	"fmt"
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
)

// Batched IsInMM round (Config.Batch).
//
// Like the MIS variant in internal/core/mis/batch.go, a block of vertex
// searches runs as pull-based iterators (ampc.Stream): each search proceeds
// until it needs an adjacency list that is not locally known, the block's
// missing lists are fetched with one shard-grouped batch read, and the
// searches resume.  The edge oracle computed is exactly the recursive
// process of §5.4, so the matching is identical to the unbatched run for
// the same seed.

type batchMatcher struct {
	ctx   *ampc.Ctx
	cache *matchCache
	rank  RankFunc
	lists map[graph.NodeID]codec.NodeList
	// charged marks edges whose merge scan has been charged, so a scan
	// re-run after a fetch suspension is not billed again — the single-key
	// edgeProcess charges each edge's scan exactly once.
	charged map[uint64]bool
}

// evalVertex returns v's mate (graph.None when v stays unmatched) and
// whether the answer is final, or the vertex whose adjacency list must be
// fetched first (graph.None when none is needed).
func (s *batchMatcher) evalVertex(v graph.NodeID) (mate, miss graph.NodeID) {
	if st := s.cache.vertex(v); st.kind == vertexMatched {
		return st.mate, graph.None
	} else if st.kind == vertexUnmatched {
		return graph.None, graph.None
	}
	lst, ok := s.lists[v]
	if !ok {
		return graph.None, v
	}
	for i := 0; i < lst.Len(); i++ {
		u := lst.At(i)
		in, miss := s.evalEdge(v, u)
		if miss != graph.None {
			return graph.None, miss
		}
		if in {
			// Charged at resolution (not per scan) so suspensions and
			// resumptions do not double-charge; one unit per resolved
			// vertex, exactly like the single-key vertexProcess.
			s.ctx.ChargeCompute(1)
			s.cache.setVertex(v, vertexState{kind: vertexMatched, mate: u})
			s.cache.setVertex(u, vertexState{kind: vertexMatched, mate: v})
			return u, graph.None
		}
	}
	s.ctx.ChargeCompute(1)
	s.cache.setVertex(v, vertexState{kind: vertexUnmatched, mate: graph.None})
	return graph.None, graph.None
}

// evalEdge is edgeProcess with fetches replaced by local list lookups: it
// reports whether (u, v) joins the random-greedy matching, or which
// adjacency list is missing.
func (s *batchMatcher) evalEdge(u, v graph.NodeID) (in bool, miss graph.NodeID) {
	key := packEdge(u, v)
	if in, ok := s.cache.edge(key); ok {
		return in, graph.None
	}
	for _, x := range [2]graph.NodeID{u, v} {
		switch st := s.cache.vertex(x); st.kind {
		case vertexMatched:
			in := packEdge(x, st.mate) == key
			s.cache.setEdge(key, in)
			return in, graph.None
		case vertexUnmatched:
			s.cache.setEdge(key, false)
			return false, graph.None
		}
	}
	au, ok := s.lists[u]
	if !ok {
		return false, u
	}
	av, ok := s.lists[v]
	if !ok {
		return false, v
	}
	myRank := s.rank(u, v)
	if !s.charged[key] {
		s.charged[key] = true
		s.ctx.ChargeCompute(au.Len() + av.Len())
	}
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
		childIn, childMiss := s.evalEdge(x, y)
		if childMiss != graph.None {
			return false, childMiss
		}
		if childIn {
			s.cache.setEdge(key, false)
			s.cache.setVertex(x, vertexState{kind: vertexMatched, mate: y})
			s.cache.setVertex(y, vertexState{kind: vertexMatched, mate: x})
			return false, graph.None
		}
	}
	s.cache.setEdge(key, true)
	return true, graph.None
}

// blockSearch is what the searches of one block share: the matcher, the
// span the stage may fetch from, and where results are published.
type blockSearch struct {
	batchMatcher
	span     dht.RangeSet
	mu       *sync.Mutex
	matching []graph.NodeID
	resolved []bool
}

// vertexSearch is the search for one vertex's mate, as a pull-based
// iterator; a block keeps its searches in one slice.
type vertexSearch struct {
	b *blockSearch
	v graph.NodeID
}

func (it *vertexSearch) Pull() (uint64, bool) {
	b := it.b
	mate, miss := b.evalVertex(it.v)
	if miss != graph.None {
		if !b.span.Contains(uint64(miss)) {
			return 0, false // escaped; the spill stage finishes v
		}
		return uint64(miss), true
	}
	b.mu.Lock()
	b.matching[it.v] = mate
	b.resolved[it.v] = true
	b.mu.Unlock()
	return 0, false
}

// batchSearchRound builds one stage of the streaming IsInMM round over
// blocks of vertices; the caller runs it (or stages it into a pipeline).
// With spans set (the local stage) each machine's searches only fetch keys
// inside spans[machine]: a search that suspends on an out-of-range key
// escapes — its iterator completes without resolving the vertex — and the
// spill stage (spans == nil) finishes it against the whole store.
func batchSearchRound(rt *ampc.Runtime, phaseName string, store *dht.Store, sorted []codec.NodeList,
	rank RankFunc, caches []*matchCache, matching []graph.NodeID, resolved []bool, mu *sync.Mutex,
	spans []dht.RangeSet) ampc.Round {
	n := len(sorted)
	size := rt.Config().BatchSize
	return ampc.Round{
		Name:        phaseName,
		Items:       ampc.NumBlocks(n, size),
		Read:        store,
		Partitioner: rt.BlockOwnerPartitioner(size, n),
		Body: func(ctx *ampc.Ctx, block int) error {
			lo, hi := ampc.BlockBounds(block, size, n)
			cache := caches[ctx.Machine]
			if cache == nil {
				cache = newMatchCache()
			}
			b := &blockSearch{
				batchMatcher: batchMatcher{
					ctx:     ctx,
					cache:   cache,
					rank:    rank,
					lists:   make(map[graph.NodeID]codec.NodeList, hi-lo),
					charged: make(map[uint64]bool),
				},
				mu: mu, matching: matching, resolved: resolved,
			}
			if spans != nil {
				b.span = spans[ctx.Machine]
			}
			searches := make([]vertexSearch, 0, hi-lo)
			its := make([]ampc.Iterator, 0, hi-lo)
			for v := lo; v < hi; v++ {
				if resolved[v] {
					continue
				}
				b.lists[graph.NodeID(v)] = sorted[v]
				searches = append(searches, vertexSearch{b: b, v: graph.NodeID(v)})
				its = append(its, &searches[len(searches)-1])
			}
			return ctx.Stream(0, its,
				func(k uint64, raw []byte, ok bool) error {
					if !ok {
						return fmt.Errorf("matching: vertex %d missing from the key-value store", k)
					}
					nbrs, err := codec.ViewNodeIDs(raw)
					if err != nil {
						return err
					}
					b.lists[graph.NodeID(k)] = nbrs
					return nil
				})
		},
	}
}
