package msf

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
)

// The truncated Prim search (Algorithm 1) as a lazy k-way merge over the
// weight-sorted adjacency lists: one cursor per absorbed vertex, a heap of
// the cursors' current heads.  The package doc says why that accepts exactly
// the edges of the textbook search that pushes every neighbour of every
// absorbed vertex; that search is kept in prim_ref_test.go, which checks the
// two outcome for outcome.

// edgeCmp is the total order on edges used everywhere in this package:
// weight first, then canonical endpoints.  It makes the minimum spanning
// forest unique even when weights collide, so the distributed algorithms and
// the sequential references agree exactly.
func edgeCmp(a, b graph.WeightedEdge) int {
	// Plain comparisons rather than cmp.Compare, whose NaN ordering costs a
	// tenth of a contraction's CPU time; weights are never NaN.
	if a.W < b.W {
		return -1
	}
	if a.W > b.W {
		return 1
	}
	ac, bc := a.Canonical(), b.Canonical()
	if c := cmp.Compare(ac.U, bc.U); c != 0 {
		return c
	}
	return cmp.Compare(ac.V, bc.V)
}

func edgeLess(a, b graph.WeightedEdge) bool { return edgeCmp(a, b) < 0 }

// neighborCmp orders the entries of one vertex's adjacency list as edgeCmp
// orders the edges they stand for.  For a fixed vertex v the canonical
// endpoints of (v, a) precede those of (v, b) exactly when a < b, whichever
// side of v the two neighbours fall on, so v itself is not needed.
func neighborCmp(a, b codec.WeightedNeighbor) int {
	if a.Weight < b.Weight {
		return -1
	}
	if a.Weight > b.Weight {
		return 1
	}
	return cmp.Compare(a.Node, b.Node)
}

// sortGraph is the SortGraph step, one shuffle stage on rt's worker pool: it
// sorts every adjacency list of g by edge order and encodes the lists back to
// back into one exactly sized arena per chunk of vertices, returning one view
// per vertex.  The views double as the values of the key-value write and as
// the lists the searches start from.  The shuffle is accounted as the encoded
// size of the lists.
func sortGraph(rt *ampc.Job, g *graph.Graph, tag string) ([]codec.WeightedList, error) {
	lists := make([]codec.WeightedList, g.NumNodes())
	scratch := make([][]codec.WeightedNeighbor, rt.PoolSize()) // one per worker
	maxDeg := g.MaxDegree()
	err := rt.Shuffle("SortGraph"+tag, len(lists), func(w, lo, hi int) (int64, error) {
		if scratch[w] == nil {
			scratch[w] = make([]codec.WeightedNeighbor, 0, maxDeg)
		}
		size := 0
		for v := lo; v < hi; v++ {
			size += codec.SizeOfWeightedList(g.Degree(graph.NodeID(v)))
		}
		arena := make([]byte, 0, size)
		list := scratch[w]
		for v := lo; v < hi; v++ {
			nv := graph.NodeID(v)
			list = list[:0]
			for i, u := range g.Neighbors(nv) {
				list = append(list, codec.WeightedNeighbor{Node: u, Weight: g.EdgeWeight(nv, i)})
			}
			slices.SortFunc(list, neighborCmp)
			arena, lists[v] = codec.AppendWeightedList(arena, list)
		}
		return int64(size), nil
	})
	if err != nil {
		return nil, err
	}
	return lists, nil
}

// primOutcome is what one truncated Prim search reports.
type primOutcome struct {
	msfEdges  []graph.WeightedEdge // MSF edges discovered by the search
	claimed   []graph.NodeID       // weaker vertices visited by the search
	stoppedAt graph.NodeID         // stronger vertex that ended the search (case 3), or None
}

// primCursor walks the sorted list of one absorbed vertex.
type primCursor struct {
	from graph.NodeID
	list codec.WeightedList
	next int // first entry not yet offered to the heap
}

// primHead is a cursor's current entry: the cheapest edge out of cursor's
// vertex that led outside the tree when the cursor last moved.
type primHead struct {
	edge   graph.WeightedEdge // from the absorbed vertex (U) to the neighbour (V)
	cursor int
}

// primState is one truncated Prim search, suspended whenever it needs an
// adjacency list: next names the vertex, the driver obtains its list however
// it likes (one lookup, a shard-grouped batch) and hands it to absorb.  It
// touches neither the runtime nor the store, so the single-key and the
// batched driver run the same search by construction.
type primState struct {
	prio   []uint64
	budget int
	start  graph.NodeID

	out     primOutcome
	inTree  map[graph.NodeID]bool
	cursors []primCursor
	heads   []primHead   // min-heap by edge order, one entry per live cursor
	pending graph.NodeID // accepted vertex waiting for its list, or None
	done    bool
	// work is the modeled scan cost of the search: one unit per absorbed
	// vertex plus one per entry of its list, as if each list were read in
	// full.  The driver charges it to its machine when the search ends.
	work int
}

// reset starts a new search from start, whose list is startList, keeping the
// memory of the previous one: a driver reuses one state per worker or block
// slot instead of allocating a map and four slices per search.
func (s *primState) reset(prio []uint64, budget int, start graph.NodeID, startList codec.WeightedList) {
	s.prio, s.budget, s.start = prio, budget, start
	s.out.msfEdges = s.out.msfEdges[:0]
	s.out.claimed = s.out.claimed[:0]
	s.out.stoppedAt = graph.None
	if s.inTree == nil {
		s.inTree = make(map[graph.NodeID]bool)
	}
	clear(s.inTree)
	s.inTree[start] = true
	s.cursors = s.cursors[:0]
	s.heads = s.heads[:0]
	s.pending = start
	s.done = false
	s.work = 0
	s.absorb(startList)
}

// absorb gives the search the list of the vertex next returned.
func (s *primState) absorb(list codec.WeightedList) {
	s.work += list.Len() + 1
	s.cursors = append(s.cursors, primCursor{from: s.pending, list: list})
	s.pending = graph.None
	if h, ok := s.advance(len(s.cursors) - 1); ok {
		s.heads = append(s.heads, h)
		s.siftUp(len(s.heads) - 1)
	}
}

// advance moves cursor c past the neighbours already in the tree and returns
// its next entry, if it has one.
func (s *primState) advance(c int) (primHead, bool) {
	cur := &s.cursors[c]
	for cur.next < cur.list.Len() {
		wn := cur.list.At(cur.next)
		cur.next++
		if !s.inTree[wn.Node] {
			return primHead{edge: graph.WeightedEdge{U: cur.from, V: wn.Node, W: wn.Weight}, cursor: c}, true
		}
	}
	return primHead{}, false
}

// next runs the search until it ends (graph.None) or has accepted a vertex
// whose list it needs; it keeps returning that vertex until absorb is called.
func (s *primState) next() graph.NodeID {
	if s.pending != graph.None || s.done {
		return s.pending
	}
	for len(s.heads) > 0 {
		top := s.heads[0]
		v := top.edge.V
		accepted := !s.inTree[v]
		if accepted {
			// The chosen edge is the minimum edge leaving the explored
			// set, so it belongs to the (unique, tie-broken) minimum
			// spanning forest.
			s.out.msfEdges = append(s.out.msfEdges, top.edge)
			s.inTree[v] = true
			if s.prio[v] < s.prio[s.start] {
				// Case 3: reached a stronger vertex; stop and point to it.
				s.out.stoppedAt = v
				break
			}
			s.out.claimed = append(s.out.claimed, v)
			if len(s.inTree) >= s.budget {
				// Case 1: exploration budget exhausted.
				break
			}
		}
		// Replace the consumed head with its cursor's next entry, or drop
		// the cursor from the heap when its list is exhausted.
		if h, ok := s.advance(top.cursor); ok {
			s.heads[0] = h
		} else {
			last := len(s.heads) - 1
			s.heads[0] = s.heads[last]
			s.heads = s.heads[:last]
		}
		s.siftDown(0)
		if accepted {
			s.pending = v
			return v
		}
	}
	// Falling out of the loop with heads left is case 1 or 3; with none,
	// case 2: the whole component was explored.
	s.done = true
	return graph.None
}

func (s *primState) siftUp(i int) {
	h := s.heads
	for i > 0 {
		p := (i - 1) / 2
		if !edgeLess(h[i].edge, h[p].edge) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (s *primState) siftDown(i int) {
	h := s.heads
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && edgeLess(h[l].edge, h[m].edge) {
			m = l
		}
		if r < len(h) && edgeLess(h[r].edge, h[m].edge) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// primRound is the single-key PrimSearch round: one search per start
// vertex, one key-value lookup per absorbed vertex.  Every search's outcome
// goes to commit, called under mu, which copies what it keeps: the outcome's
// slices are reused by the next search.
func primRound(rt *ampc.Job, name string, store *dht.Store,
	sorted []codec.WeightedList, prio []uint64, budget int,
	mu *sync.Mutex, commit func(start graph.NodeID, out *primOutcome)) ampc.Round {
	n := len(sorted)
	// A worker's search state, reused across the searches it runs; a state
	// returns to the pool only once commit has copied its outcome.
	var states sync.Pool
	return ampc.Round{
		Name:        name,
		Items:       n,
		Read:        store,
		Partitioner: rt.OwnerPartitioner(n),
		Body: func(ctx *ampc.Ctx, item int) error {
			s, _ := states.Get().(*primState)
			if s == nil {
				s = new(primState)
			}
			s.reset(prio, budget, graph.NodeID(item), sorted[item])
			for v := s.next(); v != graph.None; v = s.next() {
				raw, ok, err := ctx.Lookup(uint64(v))
				if err != nil {
					return err
				}
				list, err := viewFetched(uint64(v), raw, ok)
				if err != nil {
					return err
				}
				s.absorb(list)
			}
			ctx.ChargeCompute(s.work)
			mu.Lock()
			commit(s.start, &s.out)
			mu.Unlock()
			states.Put(s)
			return nil
		},
	}
}

// viewFetched turns a fetched store value into the list view the search
// reads in place.
func viewFetched(key uint64, raw []byte, ok bool) (codec.WeightedList, error) {
	if !ok {
		return codec.WeightedList{}, fmt.Errorf("msf: vertex %d missing from the key-value store", key)
	}
	return codec.ViewWeightedNeighbors(raw)
}
