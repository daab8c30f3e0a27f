// Package keysort is the one sort under the shuffle stages that build
// rank- or weight-sorted adjacency lists (DirectGraph, PermuteGraph and
// SortGraph) and under graph.Builder.Build's neighbour lists: a stable radix
// sort of (Key, Val) pairs by their 64-bit Key, into scratch the caller owns
// and reuses, so sorting allocates nothing.
//
// It is stable, and the shuffles rely on that instead of a tie-break: they
// hand over one vertex's neighbours in CSR order, which is ascending by
// neighbour id, with the id (or the CSR index) as Val, so pairs with equal
// keys come out ascending by id — the (key, id) order a comparator sort
// would produce, without ever comparing ids.  The builder relies on it to
// keep the first of equally light parallel edges.
//
// The sort distributes by 8-bit digits, most significant first, starting at
// the highest digit on which the keys differ and skipping every digit a
// bucket's keys share: random keys (vertex priorities, edge hashes) fall
// below the insertion-sort cutoff after one or two digits, where a
// least-significant-first sort would pay all eight passes; integer-valued
// weights share their low bytes, which are never visited.
package keysort

import (
	"math"
	"math/bits"
)

// Pair is one element to sort: a key and the value that travels with it.
type Pair struct {
	Key uint64
	Val uint32
}

// insertionCutoff is the length up to which Sort insertion-sorts instead of
// distributing: below it the 256 counts of a radix pass cost more than the
// comparisons they save.  Swept over 16, 24, 32, 48 and 64 in twelve
// alternating rounds of the three stage benchmarks on HL×1 (2-core x86-64
// VM), median ms/op per cutoff in that order:
//
//	SortGraph     32.3  32.1  32.3  32.6  34.6
//	PermuteGraph  26.4  28.5  28.6  27.6  29.4
//	DirectGraph   32.2  32.3  30.9  31.2  33.9
//
// 16 to 48 lie within each other's quartiles on every stage; 64 is the
// slowest median on all three, as BenchmarkKeySort/random/64 shows: 45–57
// ns/pair insertion-sorted against 22–31 distributed.  At 32, 48 % of
// HL×1's lists (20 % of its entries; median length 33) are insertion-sorted
// whole.
const insertionCutoff = 32

// Sort sorts p stably by Key and returns the sorted pairs, which are either
// p itself or tmp[:len(p)]; both are overwritten.  tmp must have capacity
// for len(p) pairs.
func Sort(p, tmp []Pair) []Pair {
	n := len(p)
	if n <= insertionCutoff {
		insertion(p)
		return p
	}
	first := p[0].Key
	var diff uint64 // the bits on which some key differs from the first
	for _, x := range p {
		diff |= x.Key ^ first
	}
	if diff == 0 {
		return p
	}
	// Distribute by the most significant digit on which the keys differ;
	// the digits above it are shared, so the buckets are in order.
	shift := uint(bits.Len64(diff)-1) &^ 7
	var ends [256]uint32
	for _, x := range p {
		ends[uint8(x.Key>>shift)]++
	}
	var sum uint32
	for b, c := range ends {
		ends[b] = sum
		sum += c
	}
	dst := tmp[:n]
	for _, x := range p {
		b := uint8(x.Key >> shift)
		dst[ends[b]] = x
		ends[b]++
	}
	// Each bucket is sorted on the digits below, with its span of p as
	// scratch, and copied back when its result lands there.
	var lo uint32
	for _, hi := range ends {
		if hi-lo > 1 {
			if r := Sort(dst[lo:hi], p[lo:hi]); &r[0] != &dst[lo] {
				copy(dst[lo:hi], r)
			}
		}
		lo = hi
	}
	return dst
}

// insertion sorts p stably by Key in place.
func insertion(p []Pair) {
	for i := 1; i < len(p); i++ {
		x := p[i]
		j := i
		for ; j > 0 && p[j-1].Key > x.Key; j-- {
			p[j] = p[j-1]
		}
		p[j] = x
	}
}

// Float64 returns the key of weight w: Float64(a) < Float64(b) exactly when
// a < b, and the keys of −0 and +0 are equal, as the two compare equal.  w
// must not be NaN.
func Float64(w float64) uint64 {
	if w == 0 {
		return 1 << 63 // the key of +0, for −0 too
	}
	b := math.Float64bits(w)
	if b>>63 != 0 {
		return ^b // negative: a larger magnitude must give a smaller key
	}
	return b | 1<<63
}
