// Package rankadj is the one driver under the paper's two constant-round
// query-process algorithms, MIS (Section 5.3) and maximal matching (Section
// 5.4).  They are one computation around two recursions: one shuffle builds
// every vertex's rank-sorted adjacency list (Lists — MIS's DirectGraph keeps
// the earlier neighbours by vertex rank, matching's PermuteGraph all of them
// by edge rank), one KV-write round stores the lists, and one search round
// resolves every vertex by a recursion that looks other vertices' lists up
// adaptively.
//
// A Process is what differs between the two: the names they run under, which
// neighbours a list keeps and by what key it orders them, the per-machine
// cache, the recursion itself (Single) and how a result is published.  Its
// methods are everything that does not differ: the substrate (shuffle,
// store, write round), the plan (the write round and one unconfined search
// round), the choice between the per-vertex round and the per-block
// ampc.Ctx.Stream round (the one place Config.Batch is branched on for these
// algorithms), Run (the staged sequence, or the truncated multi-pass loop of
// the O(1/ε)-round variant) and Shared (the serving layer's resident
// substrate, queried by any number of jobs, each with one search round).
// Packages mis and matching are a recursion, a cache and a Process value
// each.
//
// The recursion is written once and both search rounds run it; Limits is
// where they differ.  In the per-vertex round Limits.Fetch reads the store.
// In the streaming round it returns a list the block holds, or suspends the
// search on the missing vertex, which ampc.Stream fetches with the block's
// other misses before the search runs again from its root.  A vertex's unit
// is charged where it resolves and a merge scan once per block
// (Limits.ChargeScan), so both rounds charge the same compute.  A truncated
// pass reads earlier passes' results from Limits.Published directly, not
// through ampc.Ctx: those reads are neither counted nor priced.
package rankadj

import (
	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/keysort"
)

// worker is the scratch of one pool thread: the list being sorted, as pairs
// and the sort's second buffer, and the sorted ids to encode.  All three hold
// a hub's whole list from the start.
type worker struct {
	pairs, tmp []keysort.Pair
	ids        []graph.NodeID
}

// Lists runs the shuffle stage name on rt: for every vertex v of g, the
// neighbours u that keep(v, u) admits (all of them when keep is nil),
// ordered by (key(v, u), u), encoded back to back into one exactly sized
// arena per chunk of vertices.  The order is keysort's stable sort of the
// (key(v, u), u) pairs: the neighbours arrive in CSR order, ascending by id,
// so equal keys stay in id order.  The returned views are both the values
// of the KV-write round that follows (Encoded) and the lists the searches
// start from.  A vertex that keeps no neighbour gets an empty list with its
// 4-byte encoding, never the zero NodeList.  The shuffle is accounted as the
// encoded size of the lists, under one Phase called name.
//
// keep and key must be pure: they are called from any pool thread, key once
// per kept endpoint, keep twice (once to size the arena).
func Lists(rt *ampc.Job, name string, g *graph.Graph,
	keep func(v, u graph.NodeID) bool, key func(v, u graph.NodeID) uint64) ([]codec.NodeList, error) {
	lists := make([]codec.NodeList, g.NumNodes())
	workers := make([]worker, rt.PoolSize())
	maxDeg := g.MaxDegree()
	err := rt.Shuffle(name, len(lists), func(w, lo, hi int) (int64, error) {
		ws := &workers[w]
		if ws.pairs == nil {
			ws.pairs, ws.tmp = make([]keysort.Pair, 0, maxDeg), make([]keysort.Pair, maxDeg)
			ws.ids = make([]graph.NodeID, 0, maxDeg)
		}
		size := 0
		for v := lo; v < hi; v++ {
			nv := graph.NodeID(v)
			kept := g.Degree(nv)
			if keep != nil {
				kept = 0
				for _, u := range g.Neighbors(nv) {
					if keep(nv, u) {
						kept++
					}
				}
			}
			size += codec.SizeOfNodeList(kept)
		}
		arena := make([]byte, 0, size)
		for v := lo; v < hi; v++ {
			nv := graph.NodeID(v)
			pairs, ids := ws.pairs[:0], ws.ids[:0]
			for _, u := range g.Neighbors(nv) {
				if keep == nil || keep(nv, u) {
					pairs = append(pairs, keysort.Pair{Key: key(nv, u), Val: uint32(u)})
				}
			}
			for _, p := range keysort.Sort(pairs, ws.tmp) {
				ids = append(ids, graph.NodeID(p.Val))
			}
			arena, lists[v] = codec.AppendNodeList(arena, ids)
		}
		return int64(size), nil
	})
	if err != nil {
		return nil, err
	}
	return lists, nil
}
