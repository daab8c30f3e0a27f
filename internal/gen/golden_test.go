package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"ampcgraph/internal/graph"
)

// csrHash is the FNV-64a hash of g's CSR arrays, in order: the vertex count,
// the offsets, the concatenated neighbour lists and, when g is weighted, the
// weights' bit patterns (so −0 and +0 hash apart).
func csrHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	n := g.NumNodes()
	put64(uint64(n))
	var off int64
	put64(0)
	for v := 0; v < n; v++ {
		off += int64(g.Degree(graph.NodeID(v)))
		put64(uint64(off))
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			binary.LittleEndian.PutUint32(buf[:4], uint32(u))
			h.Write(buf[:4])
		}
	}
	if g.Weighted() {
		for v := 0; v < n; v++ {
			for _, w := range g.NeighborWeights(graph.NodeID(v)) {
				put64(math.Float64bits(w))
			}
		}
	}
	return h.Sum64()
}

// goldenCSR holds the CSR hash of every dataset at scales 1, 2 and 4 and
// seeds 1 and 7 (the cycle family ignores the seed), and of the web
// stand-ins' degree-proportional weighting at scale 1 ("CW+w", "HL+w").
// The values were recorded before the builder's counting-sort rewrite and
// the single-builder web stand-ins: a generator or builder change that
// moves one byte of any input fails here.
var goldenCSR = map[string]uint64{
	"OK/x1/seed1":       0x0cd7737add37ca2c,
	"TW/x1/seed1":       0x1a49834508046904,
	"FS/x1/seed1":       0x1a78e83ec0b33f14,
	"CW/x1/seed1":       0x5ac53c363e38220a,
	"CW+w/x1/seed1":     0xf68ee4b855d266c6,
	"HL/x1/seed1":       0x3546633ec4a61cb8,
	"HL+w/x1/seed1":     0x7fc70454d23a71dc,
	"2x20000/x1/seed1":  0xb21a9cc198b1c630,
	"2x60000/x1/seed1":  0x20e05feffaae30f4,
	"2x180000/x1/seed1": 0x2f54a21cb2df2260,
	"OK/x1/seed7":       0x9687756bbea3415b,
	"TW/x1/seed7":       0xc9a8217e99951f03,
	"FS/x1/seed7":       0x5c2422f66de56946,
	"CW/x1/seed7":       0xdb432d5ff0cbae9c,
	"CW+w/x1/seed7":     0x03b38c2cf0e96ca0,
	"HL/x1/seed7":       0xe1cc4ff3057a36e6,
	"HL+w/x1/seed7":     0x66a1d5835b698336,
	"2x20000/x1/seed7":  0xb21a9cc198b1c630,
	"2x60000/x1/seed7":  0x20e05feffaae30f4,
	"2x180000/x1/seed7": 0x2f54a21cb2df2260,
	"OK/x2/seed1":       0x00166195142b3526,
	"TW/x2/seed1":       0xc33735fe0bbd66ef,
	"FS/x2/seed1":       0xe2ecdd83353fba48,
	"CW/x2/seed1":       0x61db0da26b9095a1,
	"HL/x2/seed1":       0x666b9179dc802c3e,
	"2x20000/x2/seed1":  0xa6db213228f09a75,
	"2x60000/x2/seed1":  0xc3696781b24dd4fb,
	"2x180000/x2/seed1": 0xb5412a8942f90ec1,
	"OK/x2/seed7":       0x48beca65ba9084b1,
	"TW/x2/seed7":       0x61fb70fca5dfc41f,
	"FS/x2/seed7":       0xc596f7cbf8d33a31,
	"CW/x2/seed7":       0x947eaf647856d069,
	"HL/x2/seed7":       0xabc12148649d25f2,
	"2x20000/x2/seed7":  0xa6db213228f09a75,
	"2x60000/x2/seed7":  0xc3696781b24dd4fb,
	"2x180000/x2/seed7": 0xb5412a8942f90ec1,
	"OK/x4/seed1":       0x697a896b2de3ca7f,
	"TW/x4/seed1":       0x63ac977591950118,
	"FS/x4/seed1":       0x831b4afc719059ba,
	"CW/x4/seed1":       0xf220aa2f3e655922,
	"HL/x4/seed1":       0x67cd3c0c503acc46,
	"2x20000/x4/seed1":  0x3a50c121c4393b76,
	"2x60000/x4/seed1":  0x1cc6d02c9a61ff1b,
	"2x180000/x4/seed1": 0xb954959fbb9f0206,
	"OK/x4/seed7":       0xb838d4102b309ad7,
	"TW/x4/seed7":       0x02e09c22cace3aa8,
	"FS/x4/seed7":       0x18a64aa6f3c7bcaf,
	"CW/x4/seed7":       0x751efeea2443ce2d,
	"HL/x4/seed7":       0xde2b323f5032c04a,
	"2x20000/x4/seed7":  0x3a50c121c4393b76,
	"2x60000/x4/seed7":  0x1cc6d02c9a61ff1b,
	"2x180000/x4/seed7": 0xb954959fbb9f0206,
}

// TestDatasetsGoldenCSR: every registered input is byte-identical to the
// recorded one.  Under -short only scale 1 is built.
func TestDatasetsGoldenCSR(t *testing.T) {
	scales := []int{1, 2, 4}
	if testing.Short() {
		scales = scales[:1]
	}
	check := func(key string, g *graph.Graph) {
		t.Helper()
		got := csrHash(g)
		want, ok := goldenCSR[key]
		if !ok {
			t.Errorf("%q: no golden hash (got %#016x)", key, got)
			return
		}
		if got != want {
			t.Errorf("%s: CSR hash %#016x, want %#016x", key, got, want)
		}
	}
	all := append(Datasets(), CycleDatasets()...)
	for _, scale := range scales {
		for _, seed := range []int64{1, 7} {
			for _, d := range all {
				g := d.Build(scale, seed)
				check(fmt.Sprintf("%s/x%d/seed%d", d.Name, scale, seed), g)
				if scale == 1 && d.Kind == KindWeb {
					check(fmt.Sprintf("%s+w/x1/seed%d", d.Name, seed), DegreeProportionalWeights(g))
				}
			}
		}
	}
}
