package codec

import (
	"testing"

	"ampcgraph/internal/graph"
)

var benchSink float64

// BenchmarkWeightedListAt compares the two ways a reader can get at a stored
// adjacency list of a hub (4096 neighbours): the in-place view, reading only
// the first few entries (what a truncated Prim search touches) or all of
// them, against decoding a copy.
func BenchmarkWeightedListAt(b *testing.B) {
	ns := make([]WeightedNeighbor, 4096)
	for i := range ns {
		ns[i] = WeightedNeighbor{Node: graph.NodeID(i), Weight: float64(i)}
	}
	enc := EncodeWeightedNeighbors(ns)
	viewSum := func(b *testing.B, entries int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l, err := ViewWeightedNeighbors(enc)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < entries; j++ {
				benchSink += l.At(j).Weight
			}
		}
	}
	b.Run("view/first8", func(b *testing.B) { viewSum(b, 8) })
	b.Run("view/all", func(b *testing.B) { viewSum(b, len(ns)) })
	b.Run("decode/all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dec, err := DecodeWeightedNeighbors(enc)
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range dec {
				benchSink += n.Weight
			}
		}
	})
}
