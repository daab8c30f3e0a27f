// Package codec provides the compact binary encodings used for the values
// stored in the distributed hash table: neighbor lists, weight-sorted
// adjacency lists and small fixed records.  Keeping a real byte encoding
// (rather than storing Go slices directly) makes the byte counters reported
// by the runtimes meaningful, which matters because Figures 3 and 9 of the
// paper are measured in bytes.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"ampcgraph/internal/graph"
)

// AppendUint32 appends v in little-endian order.
func AppendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendUint64 appends v in little-endian order.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// EncodeNodeIDs encodes a neighbor list.
func EncodeNodeIDs(ids []graph.NodeID) []byte {
	b := make([]byte, 0, 4+4*len(ids))
	b = AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = AppendUint32(b, uint32(id))
	}
	return b
}

// DecodeNodeIDs decodes a neighbor list encoded by EncodeNodeIDs.
func DecodeNodeIDs(b []byte) ([]graph.NodeID, error) {
	l, err := ViewNodeIDs(b)
	if err != nil {
		return nil, err
	}
	out := make([]graph.NodeID, l.Len())
	for i := range out {
		out[i] = l.At(i)
	}
	return out, nil
}

// NodeList is a read-only view of a list encoded by EncodeNodeIDs, the
// unweighted counterpart of WeightedList: entries are read in place from the
// fixed-width encoding, so the list a shuffle produced is at once the value
// the key-value write stores (Encoded) and the list a search iterates
// (Len/At), and a list fetched from a frozen store is walked without
// decoding a copy.  The view aliases the buffer it was made from, which must
// not change while the view is in use.  The zero value is the empty list; it
// has no encoding (Encoded returns nil), unlike the empty list AppendNodeList
// writes, whose encoding is the four header bytes.
type NodeList struct {
	enc []byte // header and entries; nil for the zero value
}

// ViewNodeIDs validates the header of b once and returns the view; it
// accepts exactly the buffers DecodeNodeIDs accepts.
func ViewNodeIDs(b []byte) (NodeList, error) {
	if len(b) < 4 {
		return NodeList{}, fmt.Errorf("codec: short buffer (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	// 64-bit arithmetic: a hostile header close to 2^32 must not overflow
	// the expected length back onto the actual one.
	if uint64(len(b)) != 4+4*uint64(n) {
		return NodeList{}, fmt.Errorf("codec: length mismatch: header %d, bytes %d", n, len(b))
	}
	return NodeList{enc: b}, nil
}

// Len returns the number of entries; the zero NodeList has none.
func (l NodeList) Len() int {
	if l.enc == nil {
		return 0
	}
	return (len(l.enc) - 4) / 4
}

// At returns entry i; it panics when i is out of range, like a slice index.
func (l NodeList) At(i int) graph.NodeID {
	if i < 0 {
		// Entry -1 would otherwise read the header.
		panic("codec: NodeList index out of range")
	}
	return graph.NodeID(binary.LittleEndian.Uint32(l.enc[4+4*i:]))
}

// Encoded returns the buffer the view reads, which is the list's encoding.
// It must not be modified.
func (l NodeList) Encoded() []byte { return l.enc }

// AppendNodeList appends the encoding of ids to b, so many lists can share
// one buffer, and returns the grown buffer with a view of the list just
// written.  The view's capacity is clipped to the list, so appending to its
// Encoded bytes can never run into whatever b receives next.
func AppendNodeList(b []byte, ids []graph.NodeID) ([]byte, NodeList) {
	lo := len(b)
	b = AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = AppendUint32(b, uint32(id))
	}
	return b, NodeList{enc: b[lo:len(b):len(b)]}
}

// WeightedNeighbor is one entry of a weight-annotated adjacency list.
type WeightedNeighbor struct {
	Node   graph.NodeID
	Weight float64
}

// EncodeWeightedNeighbors encodes a weighted adjacency list.
func EncodeWeightedNeighbors(ns []WeightedNeighbor) []byte {
	return appendWeightedNeighbors(make([]byte, 0, SizeOfWeightedList(len(ns))), ns)
}

func appendWeightedNeighbors(b []byte, ns []WeightedNeighbor) []byte {
	b = AppendUint32(b, uint32(len(ns)))
	for _, n := range ns {
		b = AppendUint32(b, uint32(n.Node))
		b = AppendUint64(b, math.Float64bits(n.Weight))
	}
	return b
}

// DecodeWeightedNeighbors decodes a list encoded by EncodeWeightedNeighbors.
func DecodeWeightedNeighbors(b []byte) ([]WeightedNeighbor, error) {
	l, err := ViewWeightedNeighbors(b)
	if err != nil {
		return nil, err
	}
	out := make([]WeightedNeighbor, l.Len())
	for i := range out {
		out[i] = l.At(i)
	}
	return out, nil
}

// WeightedList is a read-only view of a list encoded by
// EncodeWeightedNeighbors: entries are read in place from the fixed-width
// encoding, so a reader that touches only a prefix of a long list (a
// truncated Prim search crossing a hub) never copies the rest.  The view
// aliases the buffer it was made from, which must not change while the view
// is in use — the contract values read from a frozen store already carry.
// The zero value is the empty list.
type WeightedList struct {
	enc []byte // header and entries; nil for the zero value
}

// ViewWeightedNeighbors validates the header of b once and returns the view;
// it accepts exactly the buffers DecodeWeightedNeighbors accepts.
func ViewWeightedNeighbors(b []byte) (WeightedList, error) {
	if len(b) < 4 {
		return WeightedList{}, fmt.Errorf("codec: short buffer (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	// 64-bit arithmetic: see ViewNodeIDs.
	if uint64(len(b)) != 4+12*uint64(n) {
		return WeightedList{}, fmt.Errorf("codec: length mismatch: header %d, bytes %d", n, len(b))
	}
	return WeightedList{enc: b}, nil
}

// Len returns the number of entries; the zero WeightedList has none, as
// (0-4)/12 truncates to 0.
func (l WeightedList) Len() int {
	return (len(l.enc) - 4) / 12
}

// At returns entry i; it panics when i is out of range, like a slice index.
func (l WeightedList) At(i int) WeightedNeighbor {
	off := 4 + 12*i
	return WeightedNeighbor{
		Node:   graph.NodeID(binary.LittleEndian.Uint32(l.enc[off:])),
		Weight: math.Float64frombits(binary.LittleEndian.Uint64(l.enc[off+4:])),
	}
}

// Encoded returns the buffer the view reads, which is the list's encoding.
// It must not be modified.
func (l WeightedList) Encoded() []byte { return l.enc }

// AppendWeightedList appends the encoding of ns to b, so many lists can
// share one buffer, and returns the grown buffer with a view of the list
// just written.  The view's capacity is clipped to the list, so appending to
// its Encoded bytes can never run into whatever b receives next.
func AppendWeightedList(b []byte, ns []WeightedNeighbor) ([]byte, WeightedList) {
	lo := len(b)
	b = appendWeightedNeighbors(b, ns)
	return b, WeightedList{enc: b[lo:len(b):len(b)]}
}

// EncodeNodeID encodes a single vertex identifier.
func EncodeNodeID(id graph.NodeID) []byte {
	return AppendUint32(nil, uint32(id))
}

// DecodeNodeID decodes a single vertex identifier.
func DecodeNodeID(b []byte) (graph.NodeID, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("codec: want 4 bytes, got %d", len(b))
	}
	return graph.NodeID(binary.LittleEndian.Uint32(b)), nil
}

// EncodeUint64 encodes a single 64-bit value.
func EncodeUint64(v uint64) []byte { return AppendUint64(nil, v) }

// DecodeUint64 decodes a single 64-bit value.
func DecodeUint64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("codec: want 8 bytes, got %d", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// SizeOfNodeList returns the encoded size in bytes of a neighbor list of the
// given length; used by the MPC runtime's shuffle byte accounting.
func SizeOfNodeList(length int) int { return 4 + 4*length }

// SizeOfWeightedList returns the encoded size of a weighted adjacency list of
// the given length.
func SizeOfWeightedList(length int) int { return 4 + 12*length }
