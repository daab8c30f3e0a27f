package codec

import (
	"bytes"
	"testing"
	"testing/quick"

	"ampcgraph/internal/graph"
)

func TestNodeIDsRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		ids := make([]graph.NodeID, len(raw))
		for i, r := range raw {
			ids[i] = graph.NodeID(r)
		}
		enc := EncodeNodeIDs(ids)
		if len(enc) != SizeOfNodeList(len(ids)) {
			return false
		}
		dec, err := DecodeNodeIDs(enc)
		if err != nil || len(dec) != len(ids) {
			return false
		}
		for i := range ids {
			if dec[i] != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIDsDecodeErrors(t *testing.T) {
	if _, err := DecodeNodeIDs(nil); err == nil {
		t.Fatal("nil buffer should fail")
	}
	if _, err := DecodeNodeIDs([]byte{5, 0, 0, 0}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestWeightedNeighborsRoundTrip(t *testing.T) {
	f := func(raw []uint32, ws []float64) bool {
		n := len(raw)
		if len(ws) < n {
			n = len(ws)
		}
		in := make([]WeightedNeighbor, n)
		for i := 0; i < n; i++ {
			in[i] = WeightedNeighbor{Node: graph.NodeID(raw[i]), Weight: ws[i]}
		}
		enc := EncodeWeightedNeighbors(in)
		if len(enc) != SizeOfWeightedList(n) {
			return false
		}
		dec, err := DecodeWeightedNeighbors(enc)
		if err != nil || len(dec) != n {
			return false
		}
		for i := range in {
			if dec[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedNeighborsDecodeErrors(t *testing.T) {
	if _, err := DecodeWeightedNeighbors([]byte{1}); err == nil {
		t.Fatal("short buffer should fail")
	}
	if _, err := DecodeWeightedNeighbors([]byte{2, 0, 0, 0, 1, 2, 3}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestWeightedListView(t *testing.T) {
	if n := (WeightedList{}).Len(); n != 0 {
		t.Fatalf("zero view has %d entries", n)
	}
	// Two lists appended into one buffer read back independently.
	a := []WeightedNeighbor{{Node: 3, Weight: 0.25}, {Node: 9, Weight: 0}}
	b := []WeightedNeighbor{{Node: 1, Weight: -2}}
	buf, la := AppendWeightedList(make([]byte, 0, 64), a)
	buf, lb := AppendWeightedList(buf, b)
	// Growing the first list's bytes must not write into the second.
	_ = append(la.Encoded(), 0xff)
	for _, tc := range []struct {
		l    WeightedList
		want []WeightedNeighbor
	}{{la, a}, {lb, b}} {
		if !bytes.Equal(tc.l.Encoded(), EncodeWeightedNeighbors(tc.want)) {
			t.Fatalf("view encodes %x, want the encoding of %v", tc.l.Encoded(), tc.want)
		}
		if tc.l.Len() != len(tc.want) {
			t.Fatalf("view has %d entries, want %d", tc.l.Len(), len(tc.want))
		}
		for i, w := range tc.want {
			if tc.l.At(i) != w {
				t.Fatalf("entry %d = %v, want %v", i, tc.l.At(i), w)
			}
		}
	}
	if _, err := ViewWeightedNeighbors(buf); err == nil {
		t.Fatal("two concatenated lists accepted as one")
	}
}

func TestNodeListView(t *testing.T) {
	if z := (NodeList{}); z.Len() != 0 || z.Encoded() != nil {
		t.Fatalf("zero view has %d entries and encoding %x", z.Len(), z.Encoded())
	}
	// Three lists appended into one buffer read back independently; the
	// empty one still has its four header bytes.
	a := []graph.NodeID{3, 9, 1 << 31}
	var b []graph.NodeID
	c := []graph.NodeID{7}
	buf, la := AppendNodeList(make([]byte, 0, 64), a)
	buf, lb := AppendNodeList(buf, b)
	buf, lc := AppendNodeList(buf, c)
	// Growing the first list's bytes must not write into the second.
	_ = append(la.Encoded(), 0xff)
	for _, tc := range []struct {
		l    NodeList
		want []graph.NodeID
	}{{la, a}, {lb, b}, {lc, c}} {
		if !bytes.Equal(tc.l.Encoded(), EncodeNodeIDs(tc.want)) {
			t.Fatalf("view encodes %x, want the encoding of %v", tc.l.Encoded(), tc.want)
		}
		if tc.l.Len() != len(tc.want) {
			t.Fatalf("view has %d entries, want %d", tc.l.Len(), len(tc.want))
		}
		for i, w := range tc.want {
			if tc.l.At(i) != w {
				t.Fatalf("entry %d = %v, want %v", i, tc.l.At(i), w)
			}
		}
	}
	if _, err := ViewNodeIDs(buf); err == nil {
		t.Fatal("three concatenated lists accepted as one")
	}
}

func TestNodeIDRoundTrip(t *testing.T) {
	enc := EncodeNodeID(graph.NodeID(123456))
	id, err := DecodeNodeID(enc)
	if err != nil || id != 123456 {
		t.Fatalf("round trip got %d, %v", id, err)
	}
	if _, err := DecodeNodeID([]byte{1, 2}); err == nil {
		t.Fatal("wrong length should fail")
	}
}

func TestUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		got, err := DecodeUint64(EncodeUint64(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeUint64([]byte{1}); err == nil {
		t.Fatal("wrong length should fail")
	}
}
