package msf

import (
	"slices"

	"ampcgraph/internal/graph"
	"ampcgraph/internal/seq"
)

// crossEdge is an edge that survived the contraction, with the dense ids of
// the clusters its endpoints were contracted into.
type crossEdge struct {
	e      graph.WeightedEdge
	cu, cv graph.NodeID
}

// contract returns the edges of g whose endpoints have different roots, and
// the number of clusters they join.  Cluster ids are dense, assigned in order
// of first appearance.
func contract(g *graph.Graph, roots []graph.NodeID) ([]crossEdge, int) {
	// Count first, so the surviving edges are allocated once at their
	// exact size: append growth instead costs contract_mem 235 rather than
	// 132 B/edge and 20 MB of peak RSS.
	survivors := 0
	g.ForEachEdge(func(u, v graph.NodeID, _ float64) {
		if roots[u] != roots[v] {
			survivors++
		}
	})
	cross := make([]crossEdge, 0, survivors)
	clusterID := make([]graph.NodeID, g.NumNodes()) // indexed by root
	for i := range clusterID {
		clusterID[i] = graph.None
	}
	clusters := 0
	cluster := func(r graph.NodeID) graph.NodeID {
		if clusterID[r] == graph.None {
			clusterID[r] = graph.NodeID(clusters)
			clusters++
		}
		return clusterID[r]
	}
	g.ForEachEdge(func(u, v graph.NodeID, w float64) {
		if ru, rv := roots[u], roots[v]; ru != rv {
			cross = append(cross, crossEdge{graph.WeightedEdge{U: u, V: v, W: w}, cluster(ru), cluster(rv)})
		}
	})
	return cross, clusters
}

func crossCmp(a, b crossEdge) int { return edgeCmp(a.e, b.e) }

// kruskalLeaf is the size below which filterKruskal sorts instead of
// partitioning.
const kruskalLeaf = 64

// filterKruskal is Kruskal's algorithm over edges without sorting all of
// them (Osipov, Sanders & Singler, ALENEX 2009): partition around a pivot,
// finish the lighter side first, then drop every heavier edge whose clusters
// have already joined and continue with what is left.  ds holds the cluster
// ids; edges is reordered in place.  It appends the accepted edges to out in
// edge order — exactly the edges a sort followed by a union loop accepts.
func filterKruskal(edges []crossEdge, ds *seq.DSU, out []graph.WeightedEdge) []graph.WeightedEdge {
	for len(edges) > kruskalLeaf {
		k := partitionCross(edges)
		out = filterKruskal(edges[:k], ds, out)
		if p := edges[k]; ds.Union(p.cu, p.cv) {
			out = append(out, p.e)
		}
		heavy := edges[k+1:]
		kept := 0
		for _, ce := range heavy {
			if ds.Find(ce.cu) != ds.Find(ce.cv) {
				heavy[kept] = ce
				kept++
			}
		}
		edges = heavy[:kept]
	}
	slices.SortFunc(edges, crossCmp)
	for _, ce := range edges {
		if ds.Union(ce.cu, ce.cv) {
			out = append(out, ce.e)
		}
	}
	return out
}

// partitionCross places a median-of-three pivot at its sorted position k of
// edges (at least three long, distinct under edgeCmp) and returns k: every
// edge before k is lighter, every edge after it heavier.  The pivot belongs
// to neither side, so both are shorter than edges whatever the weights.
func partitionCross(edges []crossEdge) int {
	last := len(edges) - 1
	mid := last / 2
	// Order the first, middle and last edge; the first and last then stop
	// the two scans below, which need no index guard.
	if edgeLess(edges[mid].e, edges[0].e) {
		edges[0], edges[mid] = edges[mid], edges[0]
	}
	if edgeLess(edges[last].e, edges[mid].e) {
		edges[mid], edges[last] = edges[last], edges[mid]
		if edgeLess(edges[mid].e, edges[0].e) {
			edges[0], edges[mid] = edges[mid], edges[0]
		}
	}
	edges[mid], edges[last-1] = edges[last-1], edges[mid]
	p := edges[last-1].e
	i, j := 0, last-1
	for {
		for i++; edgeLess(edges[i].e, p); i++ {
		}
		for j--; edgeLess(p, edges[j].e); j-- {
		}
		if i >= j {
			break
		}
		edges[i], edges[j] = edges[j], edges[i]
	}
	edges[i], edges[last-1] = edges[last-1], edges[i]
	return i
}
