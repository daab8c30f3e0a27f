package simtime

import (
	"sync"
	"testing"
	"time"
)

func TestModelsOrdered(t *testing.T) {
	if !(DRAM().LookupLatency < RDMA().LookupLatency && RDMA().LookupLatency < TCP().LookupLatency) {
		t.Fatal("lookup latencies must be ordered DRAM < RDMA < TCP")
	}
	if RDMA().Name != "rdma" || TCP().Name != "tcp" || DRAM().Name != "dram" {
		t.Fatal("model names wrong")
	}
	// The non-latency fields of TCP and DRAM are inherited from RDMA.
	if TCP().ShuffleFixed != RDMA().ShuffleFixed || DRAM().ComputePerItem != RDMA().ComputePerItem {
		t.Fatal("derived models should share the shuffle/compute costs")
	}
}

func TestClockAccumulates(t *testing.T) {
	var c Clock
	c.Charge(time.Second)
	c.Charge(500 * time.Millisecond)
	if c.Elapsed() != 1500*time.Millisecond {
		t.Fatalf("elapsed %v", c.Elapsed())
	}
	c.Charge(-time.Hour) // ignored
	if c.Elapsed() != 1500*time.Millisecond {
		t.Fatal("negative charge should be ignored")
	}
	c.Reset()
	if c.Elapsed() != 0 {
		t.Fatal("reset failed")
	}
}

func TestClockConcurrent(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Charge(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Elapsed() != 16*1000*time.Microsecond {
		t.Fatalf("elapsed %v, want 16ms", c.Elapsed())
	}
}

func TestBatchCosts(t *testing.T) {
	m := RDMA()
	// One shard visit carrying 64 keys must be far cheaper than 64 single
	// lookups but still dearer than one.
	batch := batchPrice(m, false, 0, 1, 64)
	if batch <= m.LookupLatency {
		t.Fatalf("batch of 64 costs %v, want > one lookup (%v)", batch, m.LookupLatency)
	}
	if batch >= 64*m.LookupLatency {
		t.Fatalf("batch of 64 costs %v, want < 64 lookups (%v)", batch, 64*m.LookupLatency)
	}
	if got, want := batchPrice(m, false, 0, 2, 10), 2*m.BatchShardLatency+10*m.BatchPerKey; got != want {
		t.Fatalf("batch read of 10 keys on 2 shards = %v, want %v", got, want)
	}
	if got, want := batchPrice(m, true, 0, 3, 7), 3*m.BatchShardLatency+7*m.BatchPerKey; got != want {
		t.Fatalf("batch write of 7 keys on 3 shards = %v, want %v", got, want)
	}
	// Models without batch fields fall back to sane defaults.
	var zero CostModel
	zero.LookupLatency = 8 * time.Microsecond
	if got, want := batchPrice(zero, false, 0, 2, 8), 2*8*time.Microsecond+8*time.Microsecond; got != want {
		t.Fatalf("fallback batch read = %v, want %v", got, want)
	}
}
