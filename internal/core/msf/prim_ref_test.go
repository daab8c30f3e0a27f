package msf

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ampcgraph/internal/codec"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
)

// eagerPrimSearch is the textbook truncated Prim search, kept as the
// reference the lazy frontier of prim.go is tested against: every absorbed
// vertex pushes all its out-of-tree neighbours into one candidate heap.  It
// returns the outcome and the modeled scan cost.
func eagerPrimSearch(prio []uint64, budget int, start graph.NodeID, lists [][]codec.WeightedNeighbor) (primOutcome, int) {
	out := primOutcome{stoppedAt: graph.None}
	inTree := map[graph.NodeID]bool{start: true}
	var cands eagerHeap
	work := 0
	addVertex := func(v graph.NodeID) {
		work += len(lists[v]) + 1
		for _, wn := range lists[v] {
			if !inTree[wn.Node] {
				heap.Push(&cands, graph.WeightedEdge{U: v, V: wn.Node, W: wn.Weight})
			}
		}
	}
	addVertex(start)
	for len(cands) > 0 {
		e := heap.Pop(&cands).(graph.WeightedEdge)
		if inTree[e.V] {
			continue
		}
		out.msfEdges = append(out.msfEdges, e)
		inTree[e.V] = true
		if prio[e.V] < prio[start] {
			out.stoppedAt = e.V
			return out, work
		}
		out.claimed = append(out.claimed, e.V)
		if len(inTree) >= budget {
			return out, work
		}
		addVertex(e.V)
	}
	return out, work
}

type eagerHeap []graph.WeightedEdge

func (h eagerHeap) Len() int           { return len(h) }
func (h eagerHeap) Less(i, j int) bool { return edgeLess(h[i], h[j]) }
func (h eagerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eagerHeap) Push(x any)        { *h = append(*h, x.(graph.WeightedEdge)) }
func (h *eagerHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// lazyPrimSearch resets s to start and drives it to completion with every
// list at hand.  The outcome shares s's slices until the next reset.
func lazyPrimSearch(s *primState, prio []uint64, budget int, start graph.NodeID, lists []codec.WeightedList) (primOutcome, int) {
	s.reset(prio, budget, start, lists[start])
	for v := s.next(); v != graph.None; v = s.next() {
		s.absorb(lists[v])
	}
	return s.out, s.work
}

// tiedWeights gives g weights drawn from a handful of values, zero among
// them, so most comparisons fall through to the endpoint tie-break.
func tiedWeights(g *graph.Graph, values int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	return g.WithEdgeWeights(func(_, _ graph.NodeID) float64 { return float64(r.Intn(values)) })
}

// TestLazyFrontierMatchesEagerSearch: from every start vertex and for every
// budget from 1 to n, the lazy frontier reports the same edges in the same
// order, the same claimed vertices, the same stop and the same scan cost as
// the eager reference — on inputs chosen to stress ties, zero weights, hubs
// and the ternarized cycles whose dummy edges all weigh the same.  One state,
// reset for every search in turn, runs them all, so anything reset leaves
// stale shows up as a mismatch.
func TestLazyFrontierMatchesEagerSearch(t *testing.T) {
	var s primState
	hubs := gen.PreferentialAttachment(48, 3, 2)
	graphs := map[string]*graph.Graph{
		"ties":       tiedWeights(gen.ErdosRenyi(40, 140, 1), 3, 11),
		"all-equal":  tiedWeights(gen.ErdosRenyi(30, 90, 4), 1, 12),
		"hubs":       tiedWeights(hubs, 4, 13),
		"star":       tiedWeights(gen.Star(25), 2, 14),
		"ternarized": Ternarize(tiedWeights(hubs, 2, 15)).Graph,
		"distinct":   gen.RandomWeights(gen.Grid(6, 7), 16),
		"components": tiedWeights(gen.TwoCycles(12), 2, 17),
	}
	for name, g := range graphs {
		n := g.NumNodes()
		views := sortedLists(t, g)
		decoded := make([][]codec.WeightedNeighbor, n)
		for v := range decoded {
			var err error
			if decoded[v], err = codec.DecodeWeightedNeighbors(views[v].Encoded()); err != nil {
				t.Fatalf("%s: list %d: %v", name, v, err)
			}
		}
		for _, seed := range []int64{1, 2} {
			prio := rng.VertexPriorities(seed, n)
			for budget := 1; budget <= n; budget++ {
				for v := 0; v < n; v++ {
					start := graph.NodeID(v)
					want, wantWork := eagerPrimSearch(prio, budget, start, decoded)
					got, gotWork := lazyPrimSearch(&s, prio, budget, start, views)
					if err := sameOutcome(got, want); err != nil {
						t.Fatalf("%s seed %d budget %d start %d: %v", name, seed, budget, v, err)
					}
					if gotWork != wantWork {
						t.Fatalf("%s seed %d budget %d start %d: scan cost %d, want %d",
							name, seed, budget, v, gotWork, wantWork)
					}
				}
			}
		}
	}
}

func sameOutcome(got, want primOutcome) error {
	switch {
	case !slices.Equal(got.msfEdges, want.msfEdges):
		return fmt.Errorf("msfEdges %v, want %v", got.msfEdges, want.msfEdges)
	case !slices.Equal(got.claimed, want.claimed):
		return fmt.Errorf("claimed %v, want %v", got.claimed, want.claimed)
	case got.stoppedAt != want.stoppedAt:
		return fmt.Errorf("stoppedAt %d, want %d", got.stoppedAt, want.stoppedAt)
	}
	return nil
}

// TestSortGraphOrder: every list sortGraph produces holds exactly the
// vertex's neighbours and weights, in the package's edge order — which is
// what lets the frontier look only at list heads.
func TestSortGraphOrder(t *testing.T) {
	g := tiedWeights(gen.PreferentialAttachment(200, 4, 3), 3, 5)
	lists := sortedLists(t, g)
	for v := 0; v < g.NumNodes(); v++ {
		nv := graph.NodeID(v)
		l := lists[v]
		if l.Len() != g.Degree(nv) {
			t.Fatalf("vertex %d: %d entries, degree %d", v, l.Len(), g.Degree(nv))
		}
		for i := 0; i < l.Len(); i++ {
			wn := l.At(i)
			if w, ok := g.WeightBetween(nv, wn.Node); !ok || w != wn.Weight {
				t.Fatalf("vertex %d entry %d: (%d, %v) is not an edge of g", v, i, wn.Node, wn.Weight)
			}
			if i > 0 {
				prev := l.At(i - 1)
				if !edgeLess(graph.WeightedEdge{U: nv, V: prev.Node, W: prev.Weight},
					graph.WeightedEdge{U: nv, V: wn.Node, W: wn.Weight}) {
					t.Fatalf("vertex %d: entries %d and %d out of edge order", v, i-1, i)
				}
			}
		}
	}
}
