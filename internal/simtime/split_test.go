package simtime

import (
	"testing"
	"time"
)

// price returns what n operations of kind k cost under m on one thread.
func price(m CostModel, k Count, n int64) time.Duration {
	var w Work
	w[k] = n
	return m.Price(w, 1)
}

// batchPrice returns what one batched read (or write) of keys keys visiting
// local co-located and remote shards costs under m.
func batchPrice(m CostModel, write bool, local, remote, keys int64) time.Duration {
	var w Work
	if write {
		w[BatchWrites], w[BatchWriteLocal], w[BatchWriteRemote], w[BatchWriteKeys] = 1, local, remote, keys
	} else {
		w[BatchReads], w[BatchReadLocal], w[BatchReadRemote], w[BatchReadKeys] = 1, local, remote, keys
	}
	return m.Price(w, 1)
}

func TestReadWriteCostSplit(t *testing.T) {
	m := RDMA()
	if got := price(m, LocalReads, 1); got != m.LocalShardLatency {
		t.Fatalf("local read %v, want %v", got, m.LocalShardLatency)
	}
	if got := price(m, RemoteReads, 1); got != m.LookupLatency {
		t.Fatalf("remote read %v, want %v", got, m.LookupLatency)
	}
	if price(m, LocalWrites, 1) != m.LocalShardLatency || price(m, RemoteWrites, 1) != m.WriteLatency {
		t.Fatalf("write costs %v/%v", price(m, LocalWrites, 1), price(m, RemoteWrites, 1))
	}
	if price(m, LocalReads, 1) >= price(m, RemoteReads, 1) {
		t.Fatal("a co-located read must be cheaper than a remote one under RDMA")
	}
}

func TestCostSplitFallbacksPreserveOldModels(t *testing.T) {
	// A model written before the local/remote split (no Local*/Remote*
	// fields) must charge exactly its old latencies for every combination.
	old := CostModel{
		Name:          "legacy",
		LookupLatency: 5 * time.Microsecond,
		WriteLatency:  7 * time.Microsecond,
	}
	if price(old, LocalReads, 1) != old.LookupLatency || price(old, RemoteReads, 1) != old.LookupLatency {
		t.Fatal("legacy read costs changed")
	}
	if price(old, LocalWrites, 1) != old.WriteLatency || price(old, RemoteWrites, 1) != old.WriteLatency {
		t.Fatal("legacy write costs changed")
	}
	if batchPrice(old, false, 3, 0, 16) != batchPrice(old, false, 0, 3, 16) {
		t.Fatal("without a split, local and remote batch visits must cost the same")
	}
}

func TestBatchCostSplitChargesLocalVisitsLess(t *testing.T) {
	m := RDMA()
	allRemote := batchPrice(m, false, 0, 4, 64)
	half := batchPrice(m, false, 2, 2, 64)
	allLocal := batchPrice(m, false, 4, 0, 64)
	if !(allLocal < half && half < allRemote) {
		t.Fatalf("batch costs not ordered: local %v, half %v, remote %v", allLocal, half, allRemote)
	}
	// Write direction too.
	if batchPrice(m, true, 4, 0, 64) >= batchPrice(m, true, 0, 4, 64) {
		t.Fatal("local batch writes must be cheaper")
	}
	// Explicit remote batch override wins.
	custom := m
	custom.BatchRemoteShardLatency = 50 * time.Microsecond
	if got := batchPrice(custom, false, 0, 1, 0); got != 50*time.Microsecond {
		t.Fatalf("remote batch visit charged %v, want override", got)
	}
}

func TestTransportModelsShareLocalLatency(t *testing.T) {
	// Co-located accesses are DRAM reads regardless of transport, so the
	// local latency must not scale with the transport's remote latency.
	if price(TCP(), LocalReads, 1) != price(RDMA(), LocalReads, 1) {
		t.Fatal("TCP and RDMA should share the local (DRAM) latency")
	}
	if price(TCP(), RemoteReads, 1) <= price(RDMA(), RemoteReads, 1) {
		t.Fatal("TCP remote reads should stay slower than RDMA")
	}
}
