package mis

import (
	"fmt"
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
)

// Batched IsInMIS round (Config.Batch).
//
// The recursive query process resolves one vertex at a time, so the
// single-key implementation pays one key-value round trip (one shard lock,
// one latency charge) per neighborhood it expands.  The batched round
// drives a whole block of vertices as pull-based iterators instead
// (ampc.Stream): every search runs until it needs a directed neighbor list
// that is not yet known locally, the block's missing lists are fetched with
// one shard-grouped batch read, and the searches resume.  The vertex-status
// function being computed is unchanged, so batched and unbatched runs
// produce identical independent sets for the same seed; only the grouping
// of key-value requests differs.

// batchSearcher shares one memoized status cache (per machine, as in §5.3)
// and a per-block map of fetched neighbor lists.
type batchSearcher struct {
	ctx   *ampc.Ctx
	cache *statusCache
	lists map[graph.NodeID]codec.NodeList
}

// eval returns v's status, or the vertex whose directed neighbor list must
// be fetched before the search can continue (graph.None when resolved).
// Memoized statuses survive across resumptions, so re-walking the recursion
// after a fetch only revisits cached vertices.
func (s *batchSearcher) eval(v graph.NodeID) (status, graph.NodeID) {
	if st := s.cache.get(v); st != statusUnknown {
		return st, graph.None
	}
	lst, ok := s.lists[v]
	if !ok {
		return statusUnknown, v
	}
	for i := 0; i < lst.Len(); i++ {
		st, need := s.eval(lst.At(i))
		if need != graph.None {
			return statusUnknown, need
		}
		if st == statusIn {
			s.ctx.ChargeCompute(1)
			s.cache.set(v, statusOut)
			return statusOut, graph.None
		}
	}
	s.ctx.ChargeCompute(1)
	s.cache.set(v, statusIn)
	return statusIn, graph.None
}

// blockSearch is what the searches of one block share: the searcher, the
// span the stage may fetch from, and where results are published.
type blockSearch struct {
	batchSearcher
	span            dht.RangeSet
	mu              *sync.Mutex
	inMIS, resolved []bool
}

// vertexSearch is the search for one vertex's status, as a pull-based
// iterator; a block keeps its searches in one slice.
type vertexSearch struct {
	b *blockSearch
	v graph.NodeID
}

func (it *vertexSearch) Pull() (uint64, bool) {
	b := it.b
	st, miss := b.eval(it.v)
	if miss != graph.None {
		if !b.span.Contains(uint64(miss)) {
			return 0, false // escaped; the spill stage finishes v
		}
		return uint64(miss), true
	}
	b.mu.Lock()
	b.inMIS[it.v] = st == statusIn
	b.resolved[it.v] = true
	b.mu.Unlock()
	return 0, false
}

// batchSearchRound builds one stage of the streaming IsInMIS round over
// blocks of vertices; the caller runs it (or stages it into a pipeline).
// With spans set (the local stage) each machine's searches only fetch keys
// inside spans[machine]: a search that suspends on an out-of-range key
// escapes — its iterator completes without resolving the vertex — and the
// spill stage (spans == nil) finishes it against the whole store.
func batchSearchRound(rt *ampc.Runtime, phaseName string, store *dht.Store, directed []codec.NodeList,
	caches []*statusCache, inMIS, resolved []bool, mu *sync.Mutex, spans []dht.RangeSet) ampc.Round {
	n := len(directed)
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
				cache = newStatusCache()
			}
			b := &blockSearch{
				batchSearcher: batchSearcher{
					ctx:   ctx,
					cache: cache,
					lists: make(map[graph.NodeID]codec.NodeList, hi-lo),
				},
				mu: mu, inMIS: inMIS, resolved: resolved,
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
				b.lists[graph.NodeID(v)] = directed[v]
				searches = append(searches, vertexSearch{b: b, v: graph.NodeID(v)})
				its = append(its, &searches[len(searches)-1])
			}
			return ctx.Stream(0, its,
				func(k uint64, raw []byte, ok bool) error {
					if !ok {
						return fmt.Errorf("mis: vertex %d missing from the key-value store", k)
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
