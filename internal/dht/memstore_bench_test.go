package dht

import (
	"sync"
	"testing"

	"ampcgraph/internal/codec"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
)

// Micro-benchmarks of the mem store path as the wall-clock benchmark's
// single-key workload drives it: two machines, each a goroutine on its own
// view, fill a store with one key per item (the shape of a kv-write round),
// freeze it, and read every key back (the shape of a search or walk round).
// The file uses only API the store has always had, so it can be copied into
// an older checkout for a before/after pair; the item-count hint is passed
// when the store takes one.

// benchMemStore runs b.N fill+freeze+read passes over values and reports the
// mean cost of one Put and of one frozen Get.
func benchMemStore(b *testing.B, values [][]byte) {
	const machines = 2
	n := len(values)
	var putNS, getNS int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewStore("bench", Options{Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		if r, ok := any(s).(interface{ Reserve(keys int) }); ok {
			r.Reserve(n)
		}
		// phase runs op(key) for every key, machine m taking the m-th
		// contiguous half with the op bind(m) built over its view, and returns
		// the wall time of the slower machine.
		phase := func(bind func(m int) func(k uint64)) int64 {
			var wg sync.WaitGroup
			start := b.Elapsed()
			for m := 0; m < machines; m++ {
				wg.Add(1)
				go func(m int) {
					defer wg.Done()
					op := bind(m)
					for k := m * n / machines; k < (m+1)*n/machines; k++ {
						op(uint64(k))
					}
				}(m)
			}
			wg.Wait()
			return int64(b.Elapsed() - start)
		}
		putNS += phase(func(m int) func(uint64) {
			v := s.View(m)
			return func(k uint64) {
				if err := v.Put(k, values[k]); err != nil {
					b.Error(err)
				}
			}
		})
		if err := s.Freeze(); err != nil {
			b.Fatal(err)
		}
		getNS += phase(func(m int) func(uint64) {
			v := s.View(m)
			return func(k uint64) {
				if got, ok, err := v.Get(k); err != nil || !ok || len(got) != len(values[k]) {
					b.Errorf("Get(%d): %d bytes, ok=%v, err=%v", k, len(got), ok, err)
				}
			}
		})
		s.Close()
	}
	// Each machine performs n/machines operations per phase, in parallel.
	perOp := float64(b.N) * float64(n) / machines
	b.ReportMetric(float64(putNS)/perOp, "put-ns/op")
	b.ReportMetric(float64(getNS)/perOp, "get-ns/op")
}

// BenchmarkMemStoreSmall is the cycle job's store: 400k sequential keys with
// 12-byte values.
func BenchmarkMemStoreSmall(b *testing.B) {
	values := make([][]byte, 400_000)
	for k := range values {
		values[k] = codec.AppendUint32(codec.AppendUint64(nil, uint64(k)+1), uint32(k))
	}
	benchMemStore(b, values)
}

// BenchmarkMemStoreAdjacency is the MIS/matching substrate: the encoded
// neighbour lists of the Hyperlink2012 stand-in at scale 1 (~26k lists,
// ~565k edges, a few hub lists of tens of kilobytes).
func BenchmarkMemStoreAdjacency(b *testing.B) {
	d, _ := gen.DatasetByName("HL")
	g := d.Build(1, 1)
	values := make([][]byte, g.NumNodes())
	for v := range values {
		values[v] = codec.EncodeNodeIDs(g.Neighbors(graph.NodeID(v)))
	}
	benchMemStore(b, values)
}
