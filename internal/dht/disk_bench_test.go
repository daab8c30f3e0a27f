package dht

import (
	"fmt"
	"os"
	"testing"
)

// Micro-benchmarks of the disk engine's batch calls, the two the buffered
// sub-round writes and the batched reads of a disk-backed job make: batches
// of 8 and 256 keys, with the cycle job's 12-byte values and 1 KB ones
// standing in for adjacency lists.  They report allocs/op and ns/key.  The
// file calls only the engine's constructor and batch methods, and Reserve
// when the engine has it, so it can be copied into an older checkout for a
// before/after pair.

var diskBenchShapes = []struct {
	keys, value int
}{{8, 12}, {256, 12}, {8, 1024}, {256, 1024}}

func diskBenchName(keys, value int) string {
	return fmt.Sprintf("keys=%d/value=%dB", keys, value)
}

// diskBenchLogMax bounds the log a benchmark grows before it starts over in
// a fresh directory, so a long run does not fill the disk.
const diskBenchLogMax = 64 << 20

// newBenchDisk opens a one-shard disk engine in a fresh directory, reserved
// for keys entries when the engine takes the hint.
func newBenchDisk(b *testing.B, keys int) (*diskBackend, string) {
	dir, err := os.MkdirTemp(b.TempDir(), "disk")
	if err != nil {
		b.Fatal(err)
	}
	d, err := newDiskBackend(1, dir)
	if err != nil {
		b.Fatal(err)
	}
	if r, ok := any(d).(interface{ Reserve(keys int) }); ok {
		r.Reserve(keys)
	}
	return d, dir
}

func BenchmarkDiskBatchWrite(b *testing.B) {
	for _, shape := range diskBenchShapes {
		b.Run(diskBenchName(shape.keys, shape.value), func(b *testing.B) {
			perLog := diskBenchLogMax / (shape.keys * (diskHeader + shape.value))
			d, dir := newBenchDisk(b, perLog*shape.keys)
			value := make([]byte, shape.value)
			pairs := make([]Pair, shape.keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%perLog == 0 {
					b.StopTimer()
					d.Close()
					os.RemoveAll(dir)
					d, dir = newBenchDisk(b, perLog*shape.keys)
					b.StartTimer()
				}
				for j := range pairs {
					pairs[j] = Pair{Key: uint64(i*shape.keys + j), Value: value}
				}
				if err := d.BatchWrite(0, pairs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.keys), "ns/key")
			d.Close()
		})
	}
}

func BenchmarkDiskBatchGet(b *testing.B) {
	const stored = 4096
	for _, shape := range diskBenchShapes {
		b.Run(diskBenchName(shape.keys, shape.value), func(b *testing.B) {
			d, _ := newBenchDisk(b, stored)
			defer d.Close()
			value := make([]byte, shape.value)
			pairs := make([]Pair, stored)
			for k := range pairs {
				pairs[k] = Pair{Key: uint64(k), Value: value}
			}
			if err := d.BatchWrite(0, pairs); err != nil {
				b.Fatal(err)
			}
			if err := d.Freeze(); err != nil {
				b.Fatal(err)
			}
			keys := make([]uint64, shape.keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range keys {
					keys[j] = uint64((i*shape.keys + j*7) % stored)
				}
				if _, _, err := d.BatchGet(0, keys); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.keys), "ns/key")
		})
	}
}
