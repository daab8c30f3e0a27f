package codec

import (
	"bytes"
	"math"
	"testing"

	"ampcgraph/internal/graph"
)

// FuzzDecodeNodeIDs feeds arbitrary bytes to the neighbor-list decoder: it
// must never panic, and whatever it accepts must re-encode to exactly the
// input (the encoding is canonical).
func FuzzDecodeNodeIDs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(EncodeNodeIDs([]graph.NodeID{1, 2, 3}))
	f.Add([]byte{255, 255, 255, 255})
	// Regression: a length header of 2^31 used to overflow the 32-bit
	// expected-length arithmetic back onto len(b) == 4 and panic.
	f.Add([]byte{0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, b []byte) {
		ids, err := DecodeNodeIDs(b)
		if err != nil {
			return
		}
		if got := EncodeNodeIDs(ids); !bytes.Equal(got, b) {
			t.Fatalf("decode/encode not canonical: %x -> %v -> %x", b, ids, got)
		}
	})
}

// FuzzDecodeWeightedNeighbors is the same property for the weighted
// adjacency encoding.  NaN weights are allowed in the wire format; the
// re-encode comparison is on bytes, so NaN bit patterns round-trip exactly.
func FuzzDecodeWeightedNeighbors(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(EncodeWeightedNeighbors([]WeightedNeighbor{{Node: 1, Weight: 0.5}, {Node: 2, Weight: -3}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		ns, err := DecodeWeightedNeighbors(b)
		if err != nil {
			return
		}
		if got := EncodeWeightedNeighbors(ns); !bytes.Equal(got, b) {
			t.Fatalf("decode/encode not canonical: %x -> %v -> %x", b, ns, got)
		}
	})
}

// FuzzWeightedList holds the in-place view to the decoder: it accepts exactly
// the buffers DecodeWeightedNeighbors accepts, reports the same entries (bit
// for bit, so NaN weights count), and never reads outside its own list even
// when the list sits in the middle of a larger buffer.
func FuzzWeightedList(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0x80})
	f.Add([]byte{1, 0, 0, 0, 1, 2, 3})
	f.Add(EncodeWeightedNeighbors([]WeightedNeighbor{{Node: 1, Weight: 0.5}, {Node: 2, Weight: -3}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		// The list under test is followed by another one in the same
		// buffer, as in an arena of lists.
		arena := append(append([]byte(nil), b...), EncodeWeightedNeighbors([]WeightedNeighbor{{Node: 7, Weight: 7}})...)
		l, viewErr := ViewWeightedNeighbors(arena[:len(b)])
		ns, decErr := DecodeWeightedNeighbors(b)
		if (viewErr == nil) != (decErr == nil) {
			t.Fatalf("view error %v, decode error %v", viewErr, decErr)
		}
		if viewErr != nil {
			return
		}
		if l.Len() != len(ns) {
			t.Fatalf("view has %d entries, decode %d", l.Len(), len(ns))
		}
		for i, want := range ns {
			got := l.At(i)
			if got.Node != want.Node || math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
				t.Fatalf("entry %d: view %v, decode %v", i, got, want)
			}
		}
		if !bytes.Equal(l.Encoded(), b) {
			t.Fatalf("Encoded() = %x, want the input %x", l.Encoded(), b)
		}
		for _, i := range []int{-1, l.Len()} {
			if !panics(func() { l.At(i) }) {
				t.Fatalf("At(%d) on a %d-entry list did not panic", i, l.Len())
			}
		}
	})
}

// FuzzNodeList is the same property for the unweighted view against
// DecodeNodeIDs.
func FuzzNodeList(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0x80})
	f.Add([]byte{1, 0, 0, 0, 1, 2, 3})
	f.Add(EncodeNodeIDs([]graph.NodeID{1, 2, 3}))
	f.Fuzz(func(t *testing.T, b []byte) {
		arena := append(append([]byte(nil), b...), EncodeNodeIDs([]graph.NodeID{7})...)
		l, viewErr := ViewNodeIDs(arena[:len(b)])
		ids, decErr := DecodeNodeIDs(b)
		if (viewErr == nil) != (decErr == nil) {
			t.Fatalf("view error %v, decode error %v", viewErr, decErr)
		}
		if viewErr != nil {
			return
		}
		if l.Len() != len(ids) {
			t.Fatalf("view has %d entries, decode %d", l.Len(), len(ids))
		}
		for i, want := range ids {
			if got := l.At(i); got != want {
				t.Fatalf("entry %d: view %v, decode %v", i, got, want)
			}
		}
		if !bytes.Equal(l.Encoded(), b) {
			t.Fatalf("Encoded() = %x, want the input %x", l.Encoded(), b)
		}
		for _, i := range []int{-1, l.Len()} {
			if !panics(func() { l.At(i) }) {
				t.Fatalf("At(%d) on a %d-entry list did not panic", i, l.Len())
			}
		}
	})
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// FuzzNodeIDRoundTrip checks the fixed-size record codecs both ways: every
// value round-trips, and the decoders reject every length but the canonical
// one without panicking.
func FuzzNodeIDRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint64(0))
	f.Add(uint32(1<<32-1), uint64(1)<<63)
	f.Add(uint32(12345), uint64(987654321))
	f.Fuzz(func(t *testing.T, id uint32, v uint64) {
		got, err := DecodeNodeID(EncodeNodeID(graph.NodeID(id)))
		if err != nil || got != graph.NodeID(id) {
			t.Fatalf("NodeID round trip: %d -> %d (%v)", id, got, err)
		}
		gotV, err := DecodeUint64(EncodeUint64(v))
		if err != nil || gotV != v {
			t.Fatalf("Uint64 round trip: %d -> %d (%v)", v, gotV, err)
		}
		// Truncated buffers must error, not panic.
		if _, err := DecodeNodeID(EncodeNodeID(graph.NodeID(id))[:3]); err == nil {
			t.Fatal("DecodeNodeID accepted a short buffer")
		}
		if _, err := DecodeUint64(EncodeUint64(v)[:7]); err == nil {
			t.Fatal("DecodeUint64 accepted a short buffer")
		}
	})
}
