// Package ampcgraph is a Go implementation of the graph algorithms in the
// Adaptive Massively Parallel Computation (AMPC) model from "Parallel Graph
// Algorithms in Constant Adaptive Rounds: Theory meets Practice" (Behnezhad,
// Dhulipala, Esfandiari, Łącki, Mirrokni, Schudy; VLDB 2021).
//
// The package exposes the paper's constant-round AMPC algorithms — maximal
// independent set, maximal matching (and its weighted / vertex-cover
// corollaries), minimum spanning forest, connected components and the
// 1-vs-2-Cycle primitive — on top of a simulated AMPC runtime (machines,
// rounds and a sharded distributed hash table), together with the MPC
// dataflow baselines the paper compares against.  Every algorithm returns the
// exact structure its sequential greedy counterpart would produce for the
// same seed, plus detailed runtime statistics (rounds, shuffles, key-value
// traffic, simulated time) matching the quantities measured in the paper's
// evaluation.
//
// Quick start:
//
//	b := ampcgraph.NewBuilder(4)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 2)
//	b.AddEdge(2, 3)
//	g := b.Build()
//	res, err := ampcgraph.MIS(g, ampcgraph.Config{Machines: 4, Seed: 1})
//
// See the examples directory for complete programs, and DESIGN.md /
// EXPERIMENTS.md for how the paper's tables and figures are regenerated.
package ampcgraph

import (
	"ampcgraph/internal/ampc"
	"ampcgraph/internal/core/connectivity"
	"ampcgraph/internal/core/cycle"
	"ampcgraph/internal/core/matching"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/core/msf"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/seq"
)

// NodeID identifies a vertex; vertex identifiers are dense in [0, NumNodes).
type NodeID = graph.NodeID

// None is the "no vertex" sentinel (for example, the mate of an unmatched
// vertex).
const None = graph.None

// Edge is an unweighted undirected edge.
type Edge = graph.Edge

// WeightedEdge is a weighted undirected edge.
type WeightedEdge = graph.WeightedEdge

// Graph is an immutable undirected graph in compressed sparse row form.
type Graph = graph.Graph

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// GraphStats summarizes a graph (vertices, edges, components, diameter), as
// in Table 2 of the paper.
type GraphStats = graph.Stats

// Matching is a set of vertex-disjoint edges, represented by each vertex's
// mate.
type Matching = seq.Matching

// Config configures the AMPC runtime: the number of machines, the space
// exponent ε (per-machine space S = n^ε), per-machine threads, caching, the
// key-value store latency model and the random seed.  The zero value uses
// sensible defaults (4 machines, ε = 0.5, RDMA latency model).
type Config = ampc.Config

// Stats reports what an AMPC execution cost: rounds, shuffles, bytes moved
// through shuffles and the key-value store, cache effectiveness, the maximum
// per-machine query load, wall-clock time and modeled (simulated) time.
type Stats = ampc.Stats

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds an unweighted graph from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// FromWeightedEdges builds a weighted graph from an edge list.
func FromWeightedEdges(n int, edges []WeightedEdge) *Graph {
	return graph.FromWeightedEdges(n, edges)
}

// ComputeStats computes the Table 2 style summary of a graph.
func ComputeStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// MISResult is the result of the AMPC maximal independent set computation.
type MISResult = mis.Result

// MIS computes the lexicographically-first maximal independent set of g over
// a random vertex order derived from cfg.Seed, using the constant-round AMPC
// algorithm of the paper (Figure 1).
func MIS(g *Graph, cfg Config) (*MISResult, error) { return mis.Run(g, cfg) }

// MatchingResult is the result of an AMPC matching computation.
type MatchingResult = matching.Result

// MaximalMatching computes the random-greedy maximal matching of g with the
// constant-round AMPC algorithm (Theorem 2, part 2).
func MaximalMatching(g *Graph, cfg Config) (*MatchingResult, error) {
	return matching.Run(g, cfg)
}

// MaximalMatchingFiltered computes the same matching with the
// O(log log Δ)-round edge-sampling variant (Theorem 2, part 1 / Algorithm 4).
func MaximalMatchingFiltered(g *Graph, cfg Config) (*MatchingResult, error) {
	return matching.RunFiltered(g, cfg)
}

// ApproxMaxWeightMatching computes a (2+ε)-approximate maximum weight
// matching of the weighted graph g (Corollary 4.1).
func ApproxMaxWeightMatching(g *Graph, cfg Config) (*MatchingResult, error) {
	return matching.ApproxMaxWeightMatching(g, cfg)
}

// ApproxMaximumMatching computes a (1+ε)-approximate maximum cardinality
// matching (Corollary 4.1).
func ApproxMaximumMatching(g *Graph, cfg Config, epsilon float64) (*MatchingResult, error) {
	return matching.ApproxMaximumMatching(g, cfg, epsilon)
}

// VertexCoverResult is the result of the 2-approximate vertex cover
// computation.
type VertexCoverResult = matching.VertexCoverResult

// ApproxVertexCover computes a 2-approximate minimum vertex cover
// (Corollary 4.1).
func ApproxVertexCover(g *Graph, cfg Config) (*VertexCoverResult, error) {
	return matching.ApproxVertexCover(g, cfg)
}

// MSFResult is the result of the AMPC minimum spanning forest computation.
type MSFResult = msf.Result

// MinimumSpanningForest computes the minimum spanning forest of the weighted
// graph g with the constant-round AMPC algorithm of Section 3 (as implemented
// in Section 5.5).
func MinimumSpanningForest(g *Graph, cfg Config) (*MSFResult, error) {
	return msf.Run(g, cfg)
}

// MinimumSpanningForestKKT computes the forest with the Karger–Klein–Tarjan
// sampling reduction of Section 3.1, which lowers the total query complexity
// to O(m + n log² n).
func MinimumSpanningForestKKT(g *Graph, cfg Config) (*msf.KKTResult, error) {
	return msf.RunKKT(g, cfg)
}

// ConnectivityResult is the result of the connected components computation.
type ConnectivityResult = connectivity.Result

// ConnectedComponents labels every vertex of g with its connected component,
// using the spanning-forest + pointer-jumping pipeline of Section 3.
func ConnectedComponents(g *Graph, cfg Config) (*ConnectivityResult, error) {
	return connectivity.Run(g, cfg)
}

// Session is a long-lived AMPC substrate — one worker pool, one set of
// shard stores, one ownership table and one compiled-plan cache — that many
// concurrent query jobs share.  Create one with NewSession, submit jobs with
// Session.NewJob, and Close it when done.  The one-shot entry points above
// (MIS, ConnectedComponents, ...) each build a private session per call;
// the serving layer is for running many queries against one resident graph.
type Session = ampc.Session

// Job executes one query on a session.  The Job returned by Session.NewJob
// carries its own statistics, modeled clock, cancellation context and the
// stores it opens (released by its Close) while sharing the session's pool and
// resident stores.
type Job = ampc.Job

// NewSession creates a long-lived session for concurrent queries.
func NewSession(cfg Config) *Session { return ampc.NewSession(cfg) }

// MISShared is the resident substrate of the MIS computation: the directed
// graph shuffled and written to the session's store once, reused by every
// MISShared.Run job.
type MISShared = mis.Shared

// NewMISShared builds the shared MIS substrate on rt's session (typically a
// dedicated preparation job).  Subsequent MISShared.Run calls on jobs of the
// same session compute the exact MIS(g, cfg) set without repeating the
// shuffle or the key-value write.
func NewMISShared(rt *Job, g *Graph) (*MISShared, error) { return mis.NewShared(rt, g) }

// MatchingShared is the resident substrate of the maximal matching
// computation, mirroring MISShared.
type MatchingShared = matching.Shared

// NewMatchingShared builds the shared matching substrate on rt's session.
func NewMatchingShared(rt *Job, g *Graph) (*MatchingShared, error) {
	return matching.NewShared(rt, g)
}

// ConnectedComponentsOn computes connected components as a job of a
// long-lived session.  The stores it opens are private to the call, so
// concurrent connectivity jobs on one session do not interfere.
func ConnectedComponentsOn(rt *Job, g *Graph) (*ConnectivityResult, error) {
	return connectivity.RunOn(rt, g)
}

// CycleResult is the result of the 1-vs-2-Cycle computation.
type CycleResult = cycle.Result

// OneVsTwoCycle decides whether the degree-2 graph g is a single cycle or two
// disjoint cycles, using the constant-round sampling algorithm of Section 5.6.
func OneVsTwoCycle(g *Graph, cfg Config) (*CycleResult, error) {
	return cycle.Run(g, cfg)
}

// SingleLinkageClustering cuts the minimum spanning forest of the weighted
// graph g at the given weight threshold and returns the component label of
// every vertex.  Section 1.1 of the paper motivates the MSF algorithm with
// exactly this application (any level of a single-linkage hierarchical
// clustering is an MSF plus a sort plus connectivity).
func SingleLinkageClustering(g *Graph, cfg Config, threshold float64) ([]NodeID, *MSFResult, error) {
	res, err := msf.Run(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	b := graph.NewBuilder(g.NumNodes())
	for _, e := range res.Edges {
		if e.W <= threshold {
			b.AddWeightedEdge(e.U, e.V, e.W)
		}
	}
	return seq.ConnectedComponents(b.Build()), res, nil
}
