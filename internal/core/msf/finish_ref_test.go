package msf

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/seq"
)

// sortKruskal is the finish filterKruskal replaced, kept as its reference:
// sort every surviving edge, then one union loop.
func sortKruskal(edges []crossEdge, clusters int) []graph.WeightedEdge {
	edges = slices.Clone(edges)
	slices.SortFunc(edges, crossCmp)
	ds := seq.NewDSU(clusters)
	var out []graph.WeightedEdge
	for _, ce := range edges {
		if ds.Union(ce.cu, ce.cv) {
			out = append(out, ce.e)
		}
	}
	return out
}

// TestFilterKruskalMatchesSortKruskal: filterKruskal accepts exactly the
// edges, in the same order, that the sort-then-union finish accepts — with
// all-equal, tied and distinct weights; with 1, 2, √n and n clusters (edges
// inside a cluster included, which both must reject); and with the edges
// handed over ascending, descending and shuffled, which exercises the pivot
// choice.  The larger input is over a hundred leaves long.
func TestFilterKruskalMatchesSortKruskal(t *testing.T) {
	bases := map[string]*graph.Graph{
		"small": gen.ErdosRenyi(60, 240, 1),
		"large": gen.ErdosRenyi(3000, 10000, 2),
	}
	if m := bases["large"].NumEdges(); m < 100*kruskalLeaf {
		t.Fatalf("large input has %d edges, want at least %d", m, 100*kruskalLeaf)
	}
	for name, base := range bases {
		n := base.NumNodes()
		weighted := map[string]*graph.Graph{
			"all-equal": tiedWeights(base, 1, 21),
			"ties":      tiedWeights(base, 3, 22),
			"distinct":  gen.RandomWeights(base, 23),
		}
		for wname, g := range weighted {
			for _, k := range []int{1, 2, int(math.Sqrt(float64(n))), n} {
				r := rand.New(rand.NewSource(int64(k)))
				perm := r.Perm(n)
				var cross []crossEdge
				g.ForEachEdge(func(u, v graph.NodeID, w float64) {
					cu, cv := graph.NodeID(perm[u]%k), graph.NodeID(perm[v]%k)
					cross = append(cross, crossEdge{graph.WeightedEdge{U: u, V: v, W: w}, cu, cv})
				})
				want := sortKruskal(cross, k)
				orders := map[string]func([]crossEdge){
					"ascending":  func(es []crossEdge) { slices.SortFunc(es, crossCmp) },
					"descending": func(es []crossEdge) { slices.SortFunc(es, func(a, b crossEdge) int { return crossCmp(b, a) }) },
					"shuffled":   func(es []crossEdge) { r.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] }) },
				}
				for oname, arrange := range orders {
					in := slices.Clone(cross)
					arrange(in)
					got := filterKruskal(in, seq.NewDSU(k), nil)
					if !slices.Equal(got, want) {
						i := 0
						for i < min(len(got), len(want)) && got[i] == want[i] {
							i++
						}
						t.Fatalf("%s %s, %d clusters, %s: accepted %d edges, want %d; first difference at %d",
							name, wname, k, oname, len(got), len(want), i)
					}
				}
			}
		}
	}
}
