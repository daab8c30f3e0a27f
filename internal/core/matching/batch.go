package matching

import (
	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/graph"
)

// batchMatcher is the resumable form of the IsInMM recursion that the
// streaming round (Config.Batch, rankadj's block round) drives: vertexProcess
// and edgeProcess with fetches replaced by lookups among the lists fed so
// far.  The edge oracle computed is exactly the recursive process of §5.4, so
// the matching is identical to the unbatched run for the same seed.
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

func (s *batchMatcher) Feed(v graph.NodeID, list codec.NodeList) { s.lists[v] = list }

// Eval returns v's mate (graph.None when v stays unmatched) and
// whether the answer is final, or the vertex whose adjacency list must be
// fetched first (graph.None when none is needed).
func (s *batchMatcher) Eval(v graph.NodeID) (mate, miss graph.NodeID) {
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
