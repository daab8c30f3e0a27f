package gen

import (
	"fmt"
	"sort"

	"ampcgraph/internal/graph"
)

// Dataset is a named, reproducible synthetic workload standing in for one of
// the real-world graphs of Table 2.  The paper's datasets (Orkut, Twitter,
// Friendster, ClueWeb, Hyperlink2012) are proprietary or far too large for a
// single machine, so each stand-in reproduces the structural properties that
// drive the experiments — degree skew, component structure and rough
// diameter — at a laptop-friendly scale.  The Scale knob multiplies the
// vertex count so the same shapes can be regenerated at different sizes.
type Dataset struct {
	// Name is the short name used by the paper (OK, TW, FS, CW, HL) or a
	// 2×k cycle name such as "2x1e4".
	Name string
	// Description explains which real graph this stands in for.
	Description string
	// Kind classifies the generator family.
	Kind DatasetKind
	// Build generates the graph at the given scale with the given seed.
	Build func(scale int, seed int64) *graph.Graph
}

// DatasetKind classifies generator families.
type DatasetKind int

// Dataset kinds.
const (
	KindSocial DatasetKind = iota // power-law, single giant component, low diameter
	KindWeb                       // power-law with hubs, many components, larger diameter
	KindCycle                     // the 2×k cycle family
)

func (k DatasetKind) String() string {
	switch k {
	case KindSocial:
		return "social"
	case KindWeb:
		return "web"
	case KindCycle:
		return "cycle"
	default:
		return fmt.Sprintf("DatasetKind(%d)", int(k))
	}
}

// Datasets returns the registry of Table 2 stand-ins, ordered as in the
// paper (OK, TW, FS, CW, HL).  The relative sizes mirror the paper's ordering
// (OK smallest, HL largest).
func Datasets() []Dataset {
	return []Dataset{
		{
			Name:        "OK",
			Description: "com-Orkut stand-in: dense social network, one component, small diameter",
			Kind:        KindSocial,
			Build: func(scale int, seed int64) *graph.Graph {
				return socialStandIn(3_000*scale, 24, seed)
			},
		},
		{
			Name:        "TW",
			Description: "Twitter stand-in: very skewed follower graph, one giant component",
			Kind:        KindSocial,
			Build: func(scale int, seed int64) *graph.Graph {
				return socialStandIn(6_000*scale, 28, seed+1)
			},
		},
		{
			Name:        "FS",
			Description: "Friendster stand-in: large social network, one component",
			Kind:        KindSocial,
			Build: func(scale int, seed int64) *graph.Graph {
				return socialStandIn(9_000*scale, 26, seed+2)
			},
		},
		{
			Name:        "CW",
			Description: "ClueWeb stand-in: web graph with extreme-degree hubs and many components",
			Kind:        KindWeb,
			Build: func(scale int, seed int64) *graph.Graph {
				return webStandIn(16_000*scale, 24, 64, seed+3)
			},
		},
		{
			Name:        "HL",
			Description: "Hyperlink2012 stand-in: largest web graph, many components, long tail",
			Kind:        KindWeb,
			Build: func(scale int, seed int64) *graph.Graph {
				return webStandIn(26_000*scale, 26, 96, seed+4)
			},
		},
	}
}

// DatasetByName returns the dataset with the given (case-sensitive) name.
func DatasetByName(name string) (Dataset, bool) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// DatasetNames returns the names of all registered Table 2 stand-ins in
// paper order.
func DatasetNames() []string {
	ds := Datasets()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	return names
}

// socialStandIn builds a power-law graph with a single giant component and a
// small diameter, which is the regime of OK/TW/FS.
func socialStandIn(n, k int, seed int64) *graph.Graph {
	if n < k+2 {
		n = k + 2
	}
	return PreferentialAttachment(n, k, seed)
}

// webStandIn builds a graph with the properties that matter for the ClueWeb
// and Hyperlink experiments: heavy-tailed degrees with a few extreme hubs
// (which cause join skew in the MPC baselines) and many small components in
// addition to a large one.
func webStandIn(n, k, numComponents int, seed int64) *graph.Graph {
	if numComponents < 1 {
		numComponents = 1
	}
	// The giant component takes ~80% of the vertices, the remainder is split
	// into small preferential-attachment islands.
	giant := n * 8 / 10
	if giant < k+2 {
		giant = k + 2
	}
	rest := n - giant
	perIsland := rest / numComponents
	if perIsland < 4 {
		perIsland = 4
	}
	hubFanout := giant / 4
	// Every component goes into one builder, sized for the giant, its hubs
	// and fewer than two edges per island vertex.
	b := graph.NewBuilder(n)
	b.Grow(paEdges(giant, k) + 3*hubFanout + 2*(n-giant))
	preferentialAttachment(b, 0, giant, k, seed)
	// Add a handful of extreme hubs inside the giant component to mimic the
	// >10M-degree vertices of ClueWeb (scaled down).
	for h := 0; h < 3; h++ {
		hub := graph.NodeID(h)
		for i := 0; i < hubFanout; i++ {
			tgt := graph.NodeID((h*31 + i*7) % giant)
			if tgt != hub {
				b.AddEdge(hub, tgt)
			}
		}
	}
	offset := giant
	island := 0
	for offset+4 <= n && island < numComponents {
		sz := perIsland
		if offset+sz > n {
			sz = n - offset
		}
		if sz < 4 {
			break
		}
		preferentialAttachment(b, graph.NodeID(offset), sz, 2, seed+int64(1000+island))
		offset += sz
		island++
	}
	// Any leftover vertices stay isolated, mimicking dangling pages.
	return b.Build()
}

// CycleDatasets returns the 2×k cycle datasets of Section 5.6 at laptop
// scale.  The paper uses k in {1e8, 1e9, 1e10}; the stand-ins keep the same
// geometric progression at a smaller base so that the round-count and
// speedup trends are preserved.
func CycleDatasets() []Dataset {
	sizes := []int{20_000, 60_000, 180_000}
	out := make([]Dataset, 0, len(sizes))
	for _, k := range sizes {
		k := k
		out = append(out, Dataset{
			Name:        fmt.Sprintf("2x%d", k),
			Description: fmt.Sprintf("two cycles of length %d (1-vs-2-Cycle family)", k),
			Kind:        KindCycle,
			Build: func(scale int, seed int64) *graph.Graph {
				return TwoCycles(k * scale)
			},
		})
	}
	return out
}

// DescribeDataset formats the Table 2 row for a generated graph.
func DescribeDataset(name string, g *graph.Graph) string {
	s := graph.ComputeStats(g)
	return fmt.Sprintf("%-6s n=%-9d m=%-10d diam>=%-5d cc=%-7d largest=%d",
		name, s.Nodes, s.Edges, s.ApproxDiameter, s.NumComponents, s.LargestComponent)
}

// SortedDegreeTail returns the top-k degrees in decreasing order, used by
// tests to confirm that the web stand-ins have the hub structure that drives
// the MPC join skew discussed in Section 5.3.
func SortedDegreeTail(g *graph.Graph, k int) []int {
	h := graph.DegreeHistogram(g)
	sort.Sort(sort.Reverse(sort.IntSlice(h)))
	if k > len(h) {
		k = len(h)
	}
	return h[:k]
}
