package mis

import (
	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/graph"
)

// batchSearcher is the resumable form of the IsInMIS recursion that the
// streaming round (Config.Batch, rankadj's block round) drives: it shares one
// memoized status cache (per machine, as in §5.3) and a per-block map of the
// directed neighbor lists fed so far.  The vertex-status function computed is
// the single-key searcher's, so batched and unbatched runs produce identical
// independent sets for the same seed.
type batchSearcher struct {
	ctx   *ampc.Ctx
	cache *statusCache
	lists map[graph.NodeID]codec.NodeList
}

func (s *batchSearcher) Feed(v graph.NodeID, list codec.NodeList) { s.lists[v] = list }

func (s *batchSearcher) Eval(v graph.NodeID) (bool, graph.NodeID) {
	st, miss := s.eval(v)
	return st == statusIn, miss
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
