// Package msf implements the AMPC minimum spanning forest algorithms of
// Section 3 and Section 5.5 of the paper, plus the supporting machinery:
// truncated Prim searches, ternarization, pointer-jumping forest
// connectivity, the dense Borůvka-style subroutine, and the
// Karger–Klein–Tarjan sampling reduction with F-light edge filtering.
//
// Run is the empirical pipeline of Section 5.5 (the configuration evaluated
// in Figure 7): sort adjacency lists by weight and write them to the
// distributed hash table (SortGraph + KV-Write), run a truncated Prim search
// from every vertex (PrimSearch), combine the visit records and
// pointer-jump the resulting forest (PointerJump), contract the graph
// (Contract), and finish the contracted remainder in memory (FinishMSF).
//
// The remainder has few vertices but most of the edges: on HL 510 k of 565 k
// edges survive the contraction and join only 128 clusters.  Sorting them all
// to accept the few that join clusters was the largest phase of the job, so
// the finish is Filter-Kruskal (finish.go): partition around a pivot, finish
// the lighter side, then discard every heavier edge whose two clusters are
// already joined, at the cost of two Finds, and continue with what is left.
// Once the light edges have joined the clusters, the heavy ones are filtered
// without being sorted.  The accepted edges are exactly those of a full sort:
// under edgeCmp the MSF is unique, and every discarded edge closes a cycle of
// lighter edges, so Kruskal would reject it too.
//
// The searches use the sort they pay for.  Every stored list is in the
// package's total edge order (weight, then canonical endpoints), so the
// minimum edge leaving a search's tree is the smallest of the absorbed
// vertices' first out-of-tree entries.  A search therefore keeps one cursor
// per absorbed vertex and a heap of cursor heads — at most budget entries —
// instead of a heap of every edge it has seen, and reads entries in place
// from the encoded list (codec.WeightedList).  Crossing a hub of degree d
// costs one heap entry, not d copied candidates.  The result is exact, not
// approximate: on a simple graph the order is total, so the minimum leaving
// edge is unique and both formulations accept the same edges in the same
// order.  One search core (primState, prim.go) serves the single-key and the
// batched round; the modeled scan cost still charges a full pass over each
// absorbed list, so the simulated clock is unchanged.
//
// RunTheoretical follows Algorithm 2: ternarize sparse graphs, run
// TruncatedPrim on the ternarized graph, and finish with the dense
// subroutine.  RunKKT adds the sampling reduction of Section 3.1
// (Algorithm 3 / Algorithm 5), which lowers the query complexity to
// O(m + n log² n).
package msf

import (
	"fmt"
	"slices"
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
	"ampcgraph/internal/seq"
)

// Result is the output of an AMPC minimum spanning forest computation.
type Result struct {
	// Edges are the forest edges (a subset of the input graph's edges).
	Edges []graph.WeightedEdge
	// TotalWeight is the sum of the forest edge weights.
	TotalWeight float64
	// Stats are the runtime statistics.
	Stats ampc.Stats
	// ContractedNodes is the number of vertices that survived the Prim
	// contraction (Lemma 3.3 predicts a shrink factor of about n^(ε/2)).
	ContractedNodes int
	// MaxPointerChain is the longest pointer-jumping chain observed (the
	// paper reports a maximum of 33 across all graphs).
	MaxPointerChain int
	// PrimEdges is the number of forest edges discovered directly by the
	// truncated Prim searches (the rest come from the contracted remainder).
	PrimEdges int
}

// Run computes the minimum spanning forest of the weighted graph g with the
// empirical AMPC pipeline of Section 5.5.
func Run(g *graph.Graph, cfg ampc.Config) (*Result, error) {
	if g.NumNodes() > 0 && !g.Weighted() {
		return nil, fmt.Errorf("msf: input graph must be weighted")
	}
	rt := ampc.New(cfg)
	defer rt.Close()
	res, err := runPrimPipeline(rt, g, "")
	if err != nil {
		return nil, err
	}
	res.Stats = rt.Stats()
	return res, nil
}

// RunOn runs the empirical MSF pipeline on an existing runtime, so that other
// algorithms (connectivity, benchmarking harnesses) can compose it with their
// own phases while sharing one set of statistics.  The input must be
// weighted.
func RunOn(rt *ampc.Job, g *graph.Graph) (*Result, error) {
	if !g.Weighted() {
		return nil, fmt.Errorf("msf: input graph must be weighted")
	}
	return runPrimPipeline(rt, g, "")
}

// runPrimPipeline executes the SortGraph / KV-Write / PrimSearch /
// PointerJump / Contract pipeline on an existing runtime and finishes the
// contracted remainder with the in-memory solver.
func runPrimPipeline(rt *ampc.Job, g *graph.Graph, tag string) (*Result, error) {
	cfg := rt.Config()
	n := g.NumNodes()
	result := &Result{}
	if n == 0 {
		return result, nil
	}
	// Degree-proportional placement weights keep per-machine load even under
	// ampc.PlacementWeighted; under other placements this only declares the
	// keyspace.
	rt.SetOwnership(graph.DegreeWeights(g))
	prio := rng.VertexPriorities(cfg.Seed, n)
	budget := cfg.SpaceBudget(n)

	// Phase 1: sort each adjacency list by edge weight (one shuffle).
	sorted, err := sortGraph(rt, g, tag)
	if err != nil {
		return nil, err
	}

	// Phase 2: write the weight-sorted graph to the key-value store.
	store, err := rt.OpenStore("weight-sorted-graph" + tag)
	if err != nil {
		return nil, err
	}
	writeRound := rt.WriteTableRound("kv-write"+tag, store, n, 1, func(item int) []byte {
		return sorted[item].Encoded()
	})

	// Phase 3: truncated Prim search from every vertex.
	type visit struct {
		visited, visitor graph.NodeID
	}
	var mu sync.Mutex
	edgeSet := make(map[graph.Edge]float64)
	var visits []visit
	stopped := make([]graph.NodeID, n) // case-3 stop target, or None
	for i := range stopped {
		stopped[i] = graph.None
	}
	commit := func(start graph.NodeID, out *primOutcome) {
		for _, e := range out.msfEdges {
			c := graph.Edge{U: e.U, V: e.V}.Canonical()
			edgeSet[c] = e.W
		}
		for _, u := range out.claimed {
			visits = append(visits, visit{visited: u, visitor: start})
		}
		stopped[start] = out.stoppedAt
	}
	// One lookup per absorbed vertex, or lock-step block searches over
	// shard-grouped batches (batch.go).
	search := primRound(rt, "prim-search"+tag, store, sorted, prio, budget, &mu, commit)
	if cfg.Batch {
		search = batchPrimRound(rt, "prim-search"+tag, store, sorted, prio, budget, &mu, commit)
	}
	// The search reads exactly the store the KV-write round produces, so
	// the two form one staged sequence.
	err = rt.RunStaged([]ampc.StagedRound{
		{Phase: "KV-Write" + tag, Round: writeRound},
		{Phase: "PrimSearch" + tag, Round: search},
	})
	if err != nil {
		return nil, err
	}

	// Phase 4: combine visit records per visited vertex, keeping the
	// strongest (lowest-rank) visitor; this is one shuffle in the dataflow
	// implementation.
	parent := make([]graph.NodeID, n)
	for i := range parent {
		parent[i] = graph.NodeID(i)
	}
	err = rt.Phase("Combine"+tag, func() error {
		rt.RecordShuffle("combine-visits"+tag, int64(len(visits))*8)
		best := make(map[graph.NodeID]graph.NodeID)
		for _, vi := range visits {
			cur, ok := best[vi.visited]
			if !ok || prio[vi.visitor] < prio[cur] {
				best[vi.visited] = vi.visitor
			}
		}
		for v := 0; v < n; v++ {
			nv := graph.NodeID(v)
			cand := graph.None
			if b, ok := best[nv]; ok && prio[b] < prio[nv] {
				cand = b
			}
			if s := stopped[v]; s != graph.None && (cand == graph.None || prio[s] < prio[cand]) {
				cand = s
			}
			if cand != graph.None {
				parent[v] = cand
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 5: pointer jumping over the visitor forest (one shuffle to build
	// the parent map, then chasing pointers through the key-value store).
	roots, maxChain, err := PointerJump(rt, parent, tag)
	if err != nil {
		return nil, err
	}
	result.MaxPointerChain = maxChain

	// Phase 6: contract the graph along the mapping (two shuffles in the
	// dataflow implementation).  Only edges whose endpoints landed in
	// different clusters survive the contraction.
	var cross []crossEdge
	err = rt.Phase("Contract"+tag, func() error {
		rt.RecordShuffle("contract-edges"+tag, g.NumEdges()*12)
		rt.RecordShuffle("contract-build"+tag, g.NumEdges()*12)
		cross, result.ContractedNodes = contract(g, roots)
		return nil
	})
	if err != nil {
		return nil, err
	}
	result.PrimEdges = len(edgeSet)

	// Finish in memory: Kruskal over the surviving cross-cluster edges in
	// the same global edge order the Prim searches used, so the tie-breaking
	// stays consistent and the union remains a forest.
	err = rt.Phase("FinishMSF"+tag, func() error {
		ds := seq.NewDSU(result.ContractedNodes)
		for _, e := range filterKruskal(cross, ds, nil) {
			edgeSet[graph.Edge{U: e.U, V: e.V}.Canonical()] = e.W
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for e, w := range edgeSet {
		result.Edges = append(result.Edges, graph.WeightedEdge{U: e.U, V: e.V, W: w})
	}
	slices.SortFunc(result.Edges, edgeCmp)
	for _, e := range result.Edges {
		result.TotalWeight += e.W
	}
	return result, nil
}

// PointerJump resolves every vertex's pointer chain to its root using the
// key-value store, as in the ForestConnectivity routine (Proposition 3.2) and
// the PointerJump phase of the empirical MSF pipeline.  parent[v] == v marks
// a root.  It returns the root of every vertex and the longest chain length
// observed.
func PointerJump(rt *ampc.Job, parent []graph.NodeID, tag string) ([]graph.NodeID, int, error) {
	n := len(parent)
	rt.SetKeyspace(n)
	store, err := rt.OpenStore("parents" + tag)
	if err != nil {
		return nil, 0, err
	}
	roots := make([]graph.NodeID, n)
	chains := make([]int, n)
	err = rt.Phase("PointerJump"+tag, func() error {
		rt.RecordShuffle("parent-map"+tag, int64(n)*8)
		// Every pointer encoded into one arena; the store copies each value.
		enc := make([]byte, 0, 4*n)
		for _, p := range parent {
			enc = codec.AppendUint32(enc, uint32(p))
		}
		writeRound := rt.WriteTableRound("write-parents"+tag, store, n, 0, func(item int) []byte {
			return enc[4*item : 4*item+4 : 4*item+4]
		})
		var chase ampc.Round
		if rt.Config().Batch {
			// Lock-step pointer chases over shard-grouped batches (batch.go).
			chase = batchChaseRound(rt, "chase-pointers"+tag, store, n, roots, chains)
		} else {
			chase = ampc.Round{
				Name:        "chase-pointers" + tag,
				Items:       n,
				Read:        store,
				Partitioner: rt.OwnerPartitioner(n),
				Body: func(ctx *ampc.Ctx, item int) error {
					cur := graph.NodeID(item)
					steps := 0
					for {
						raw, ok, err := ctx.Lookup(uint64(cur))
						if err != nil {
							return err
						}
						if !ok {
							return fmt.Errorf("msf: missing parent pointer for %d", cur)
						}
						p, err := codec.DecodeNodeID(raw)
						if err != nil {
							return err
						}
						if p == cur {
							break
						}
						cur = p
						steps++
						if steps > n {
							return fmt.Errorf("msf: pointer chain from %d does not terminate", item)
						}
					}
					roots[item] = cur
					chains[item] = steps
					return nil
				},
			}
		}
		// Both rounds run inside the PointerJump phase; the empty stage
		// phases keep the historical phase layout.
		return rt.RunStaged([]ampc.StagedRound{
			{Round: writeRound},
			{Round: chase},
		})
	})
	if err != nil {
		return nil, 0, err
	}
	maxChain := 0
	for _, c := range chains {
		if c > maxChain {
			maxChain = c
		}
	}
	return roots, maxChain, nil
}

// contractWithOrigins contracts g along mapping (vertex -> representative)
// keeping, for every contracted edge, the original minimum-weight edge that
// produced it, so forest edges of the contracted graph can be lifted back to
// edges of g.
func contractWithOrigins(g *graph.Graph, mapping []graph.NodeID) (*graph.Graph, map[graph.Edge]graph.WeightedEdge) {
	n := g.NumNodes()
	// Assign dense ids to representatives that keep at least one edge.
	newID := make([]graph.NodeID, n)
	for i := range newID {
		newID[i] = graph.None
	}
	var repCount int
	assign := func(rep graph.NodeID) graph.NodeID {
		if newID[rep] == graph.None {
			newID[rep] = graph.NodeID(repCount)
			repCount++
		}
		return newID[rep]
	}
	type key struct{ a, b graph.NodeID }
	best := make(map[key]graph.WeightedEdge)
	g.ForEachEdge(func(u, v graph.NodeID, w float64) {
		ru, rv := mapping[u], mapping[v]
		if ru == rv {
			return
		}
		cu, cv := assign(ru), assign(rv)
		if cu > cv {
			cu, cv = cv, cu
		}
		k := key{cu, cv}
		e := graph.WeightedEdge{U: u, V: v, W: w}
		if cur, ok := best[k]; !ok || edgeLess(e, cur) {
			best[k] = e
		}
	})
	b := graph.NewBuilder(repCount)
	b.Grow(len(best))
	origins := make(map[graph.Edge]graph.WeightedEdge, len(best))
	for k, e := range best {
		b.AddWeightedEdge(k.a, k.b, e.W)
		origins[graph.Edge{U: k.a, V: k.b}.Canonical()] = e
	}
	return b.Build(), origins
}
