package gen

import (
	"math/rand"
	"testing"

	"ampcgraph/internal/graph"
)

// boundedDegreeTreeRef is RandomBoundedDegreeTree as it was before the
// swap-remove at the drawn index: it found the full vertex again by a linear
// scan of the candidates.
func boundedDegreeTreeRef(n, maxDeg int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	deg := make([]int, n)
	b := graph.NewBuilder(n)
	candidates := []int{0}
	for i := 1; i < n; i++ {
		j := candidates[rng.Intn(len(candidates))]
		b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		deg[j]++
		deg[i]++
		if deg[j] >= maxDeg {
			for k, c := range candidates {
				if c == j {
					candidates[k] = candidates[len(candidates)-1]
					candidates = candidates[:len(candidates)-1]
					break
				}
			}
		}
		if deg[i] < maxDeg {
			candidates = append(candidates, i)
		}
		if len(candidates) == 0 {
			candidates = append(candidates, i)
		}
	}
	return b.Build()
}

// TestRandomBoundedDegreeTreeMatchesScanReference: swap-removing at the drawn
// index builds the trees the linear scan did.
func TestRandomBoundedDegreeTreeMatchesScanReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 500, 5_000} {
		for _, maxDeg := range []int{2, 3, 4, 8} {
			for _, seed := range []int64{1, 2, 42} {
				sameGraph(t, "tree", RandomBoundedDegreeTree(n, maxDeg, seed), boundedDegreeTreeRef(n, maxDeg, seed))
			}
		}
	}
}
