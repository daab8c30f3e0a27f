package graph

import "sort"

// Stats summarizes the structural properties reported in Table 2 of the
// paper: vertex and edge counts, an (approximate) diameter, the number of
// connected components and the size of the largest one.
type Stats struct {
	Nodes            int
	Edges            int64
	MaxDegree        int
	AvgDegree        float64
	ApproxDiameter   int
	NumComponents    int
	LargestComponent int
}

// ComputeStats computes Stats for g.  The diameter is a lower bound obtained
// by a double-sweep BFS from the largest component (exact on trees and
// cycles, a standard approximation otherwise), mirroring the lower-bound
// diameters reported in the paper.
func ComputeStats(g *Graph) Stats {
	n := g.NumNodes()
	s := Stats{Nodes: n, Edges: g.NumEdges(), MaxDegree: g.MaxDegree()}
	if n > 0 {
		s.AvgDegree = float64(2*s.Edges) / float64(n)
	}
	comp := Components(g)
	sizes := map[NodeID]int{}
	for _, c := range comp {
		sizes[c]++
	}
	s.NumComponents = len(sizes)
	var largestRep NodeID
	for rep, sz := range sizes {
		if sz > s.LargestComponent {
			s.LargestComponent = sz
			largestRep = rep
		}
	}
	if s.LargestComponent > 0 {
		// Double-sweep BFS inside the largest component.
		var start NodeID
		for v := 0; v < n; v++ {
			if comp[v] == largestRep {
				start = NodeID(v)
				break
			}
		}
		far, _ := bfsFarthest(g, start)
		_, dist := bfsFarthest(g, far)
		s.ApproxDiameter = dist
	}
	return s
}

// Components labels every vertex with the smallest vertex identifier in its
// connected component using BFS.  It is the sequential reference used both by
// Stats and by tests of the distributed connectivity algorithms.
func Components(g *Graph) []NodeID {
	n := g.NumNodes()
	comp := make([]NodeID, n)
	for i := range comp {
		comp[i] = None
	}
	queue := make([]NodeID, 0, 1024)
	for v := 0; v < n; v++ {
		if comp[v] != None {
			continue
		}
		rep := NodeID(v)
		comp[v] = rep
		queue = append(queue[:0], rep)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if comp[w] == None {
					comp[w] = rep
					queue = append(queue, w)
				}
			}
		}
	}
	return comp
}

// SameComponents reports whether two component labelings induce the same
// partition of the vertices (labels themselves may differ).
func SameComponents(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[NodeID]NodeID{}
	rev := map[NodeID]NodeID{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok {
			if x != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if x, ok := rev[b[i]]; ok {
			if x != a[i] {
				return false
			}
		} else {
			rev[b[i]] = a[i]
		}
	}
	return true
}

func bfsFarthest(g *Graph, start NodeID) (NodeID, int) {
	dist := map[NodeID]int{start: 0}
	queue := []NodeID{start}
	far, fd := start, 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[u] + 1
				if dist[w] > fd {
					fd, far = dist[w], w
				}
				queue = append(queue, w)
			}
		}
	}
	return far, fd
}

// DegreeWeights returns per-vertex placement weights proportional to vertex
// degree: deg(v) + 1.  The +1 keeps zero-degree vertices at positive weight,
// so a degree-weighted contiguous partition (dht.NewOwnership) balances key
// counts as well as work and never hands a machine a weightless range.  The
// AMPC algorithms pass these weights to Session.SetOwnership, since the
// key-value traffic a vertex generates is proportional to its degree.
func DegreeWeights(g *Graph) []int {
	w := make([]int, g.NumNodes())
	for v := range w {
		w[v] = g.Degree(NodeID(v)) + 1
	}
	return w
}

// DegreeHistogram returns the sorted multiset of vertex degrees.  It is used
// by the workload generators' tests to check power-law-ness of the synthetic
// stand-ins for the paper's social and web graphs.
func DegreeHistogram(g *Graph) []int {
	out := make([]int, g.NumNodes())
	for v := range out {
		out[v] = g.Degree(NodeID(v))
	}
	sort.Ints(out)
	return out
}
