// Package simtime provides the simulated-time cost model shared by the AMPC
// and MPC runtimes.
//
// The paper's experiments run on 100 machines in a production data center
// where the dominant costs are (i) shuffles, which write their data to
// durable storage, and (ii) lookups to the distributed key-value store, whose
// latency depends on the transport (RDMA versus TCP/IP, Table 4).  This
// repository reproduces the system in a single process, so wall-clock time
// alone would hide those distributed costs.  Every runtime therefore keeps a
// simulated clock alongside the real one, and the benchmark harness reports
// both real and modeled time.
//
// The runtimes count their work — key-value operations by kind and side,
// compute items, rounds, shuffles and their bytes, migrations — into Work
// vectors, and CostModel.Price turns counts into time.  Price is the one
// reader of a model: swapping the model re-prices the same counts.
package simtime

import (
	"sync/atomic"
	"time"
)

// CostModel holds the per-operation charges used by the simulated clock.
// All values are per single operation unless stated otherwise.
type CostModel struct {
	// Name identifies the transport (for reports).
	Name string
	// LookupLatency is the round-trip latency of one key-value store read.
	LookupLatency time.Duration
	// WriteLatency is the latency of one key-value store write.
	WriteLatency time.Duration
	// ComputePerItem is the cost of processing a single work item (a vertex
	// visit, an edge scan, ...) on a machine.
	ComputePerItem time.Duration
	// ShuffleFixed is the fixed cost of spawning one shuffle (the dominant
	// per-round overhead of the dataflow framework, which writes to durable
	// storage).
	ShuffleFixed time.Duration
	// ShufflePerByte is the cost per byte written during a shuffle.
	ShufflePerByte time.Duration
	// RoundOverhead is the fixed cost of spawning one AMPC round.
	RoundOverhead time.Duration
	// BatchShardLatency is the fixed round-trip cost charged per shard
	// visited by a batched key-value operation.  A batch that groups its
	// keys by shard pays this once per shard instead of LookupLatency /
	// WriteLatency once per key, which is the amortization §5.3 attributes
	// the practical AMPC wins to.  Zero falls back to the single-operation
	// latency of the same direction.
	BatchShardLatency time.Duration
	// BatchPerKey is the marginal cost of each key carried by a batched
	// operation (serialization plus hash-table work on the server).  Zero
	// falls back to 1/8 of the single-operation latency.
	BatchPerKey time.Duration
	// LocalShardLatency is the cost of one key-value operation served by a
	// shard co-located with the requesting machine (a DRAM access instead of
	// a network round trip).  It only applies when the store's placement
	// policy co-locates shards with machines and the caller identifies
	// itself; zero falls back to the remote latency of the same direction,
	// which disables the local/remote split.
	LocalShardLatency time.Duration
	// RemoteShardLatency is the round-trip cost of one key-value operation
	// served by a shard on another machine.  Zero falls back to
	// LookupLatency / WriteLatency per direction, so cost models predating
	// the split behave exactly as before.
	RemoteShardLatency time.Duration
	// BatchLocalShardLatency is the fixed cost charged per co-located shard
	// visited by a batched operation.  Zero falls back to LocalShardLatency,
	// then to the remote batch cost.
	BatchLocalShardLatency time.Duration
	// BatchRemoteShardLatency is the fixed cost charged per remote shard
	// visited by a batched operation.  Zero falls back to BatchShardLatency
	// and then to the single-operation remote latency.
	BatchRemoteShardLatency time.Duration
	// MigrateFixed is the fixed cost of one ownership rebalance: draining
	// in-flight work and swinging the routing tables before any byte moves.
	// Zero falls back to RoundOverhead, so models predating migration still
	// charge a rebalance like the round barrier it replaces.
	MigrateFixed time.Duration
	// MigratePerByte is the cost per byte of shard data copied between
	// machines during an ownership rebalance.  Zero falls back to
	// ShufflePerByte — migrated bytes cross the same interconnect as
	// shuffled ones.
	MigratePerByte time.Duration
}

// Count names one entry of a Work vector.
type Count int

// The counts of a Work vector.  Price charges every one of them except the
// batch counts BatchReads and BatchWrites, which the shard visits and keys
// they carry already price.
const (
	// LocalReads / RemoteReads count single-key reads served by a shard
	// co-located with the reading machine / on another machine.
	LocalReads Count = iota
	RemoteReads
	// LocalWrites / RemoteWrites count single-key writes the same way.
	LocalWrites
	RemoteWrites
	// CacheHits counts reads served from the machine's own cache.
	CacheHits
	// BatchReads counts shard-grouped batch reads; BatchReadLocal /
	// BatchReadRemote the co-located and remote shards they visited, and
	// BatchReadKeys the keys they carried.
	BatchReads
	BatchReadLocal
	BatchReadRemote
	BatchReadKeys
	// BatchWrites, BatchWriteLocal, BatchWriteRemote and BatchWriteKeys are
	// the same four counts for shard-grouped batch writes.
	BatchWrites
	BatchWriteLocal
	BatchWriteRemote
	BatchWriteKeys
	// Compute counts items of local computation (vertex visits, edge
	// scans, ...).
	Compute
	// Rounds, Shuffles, ShuffleBytes, Migrations and MigratedBytes are the
	// job-level counts: round spawns, shuffles of the host framework and the
	// bytes they moved, ownership rebalances and the shard bytes they copied.
	Rounds
	Shuffles
	ShuffleBytes
	Migrations
	MigratedBytes
	// NumCounts is the length of a Work vector.
	NumCounts
)

// Work is a vector of operation counts, indexed by Count.  Every cost a
// model charges is linear in these counts, so on one thread the price of a
// sum of Work vectors is the sum of their prices.
type Work [NumCounts]int64

// Add adds o to w, count by count.
func (w *Work) Add(o Work) {
	for k := range w {
		w[k] += o[k]
	}
}

// cacheHitLatency is the cost of a read served from the machine's own
// memory, whatever the transport.
var cacheHitLatency = DRAM().LookupLatency

// or returns d, or fallback when d is zero (an unset CostModel field).
func or(d, fallback time.Duration) time.Duration {
	if d != 0 {
		return d
	}
	return fallback
}

// Price returns the modeled time of the work w done by one machine running
// threads (at least 1) worker threads: compute, plus the key-value latency divided by
// threads (threads overlap lookups but not computation), plus the job-level
// costs.  Zero model fields fall back as documented on CostModel.  Price is
// the only reader of a model's cost fields.
func (m CostModel) Price(w Work, threads int) time.Duration {
	kv := time.Duration(w[CacheHits])*cacheHitLatency +
		m.kvPrice(m.LookupLatency, w[LocalReads], w[RemoteReads], w[BatchReadLocal], w[BatchReadRemote], w[BatchReadKeys]) +
		m.kvPrice(m.WriteLatency, w[LocalWrites], w[RemoteWrites], w[BatchWriteLocal], w[BatchWriteRemote], w[BatchWriteKeys])
	return time.Duration(w[Compute])*m.ComputePerItem + kv/time.Duration(threads) +
		time.Duration(w[Rounds])*m.RoundOverhead +
		time.Duration(w[Shuffles])*m.ShuffleFixed +
		time.Duration(w[ShuffleBytes])*m.ShufflePerByte +
		time.Duration(w[Migrations])*or(m.MigrateFixed, m.RoundOverhead) +
		time.Duration(w[MigratedBytes])*or(m.MigratePerByte, m.ShufflePerByte)
}

// kvPrice prices one direction's key-value operations, single being its
// LookupLatency or WriteLatency.
func (m CostModel) kvPrice(single time.Duration, local, remote, batchLocal, batchRemote, batchKeys int64) time.Duration {
	remoteLat := or(m.RemoteShardLatency, single)
	perShard := or(m.BatchShardLatency, remoteLat)
	return time.Duration(local)*or(m.LocalShardLatency, remoteLat) +
		time.Duration(remote)*remoteLat +
		time.Duration(batchLocal)*or(m.BatchLocalShardLatency, or(m.LocalShardLatency, perShard)) +
		time.Duration(batchRemote)*or(m.BatchRemoteShardLatency, perShard) +
		time.Duration(batchKeys)*or(m.BatchPerKey, single/8)
}

// RDMA returns the cost model of the RDMA-backed key-value store used for
// most experiments in the paper (§5.1 reports latencies of a few
// microseconds).
func RDMA() CostModel {
	// The fixed overheads are scaled to the laptop-scale stand-in graphs used
	// by this repository: a shuffle's fixed cost dominates small inputs the
	// same way it does in the paper's cluster, without completely hiding the
	// per-lookup costs that the optimization experiments measure.
	return CostModel{
		Name:              "rdma",
		LookupLatency:     2 * time.Microsecond,
		WriteLatency:      2 * time.Microsecond,
		ComputePerItem:    50 * time.Nanosecond,
		ShuffleFixed:      250 * time.Millisecond,
		ShufflePerByte:    3 * time.Nanosecond,
		RoundOverhead:     25 * time.Millisecond,
		BatchShardLatency: 2 * time.Microsecond,
		BatchPerKey:       150 * time.Nanosecond,
		// A shard co-located with the requesting machine is a DRAM access,
		// which the paper observes to be an order of magnitude cheaper than
		// an RDMA lookup.
		LocalShardLatency:      100 * time.Nanosecond,
		BatchLocalShardLatency: 100 * time.Nanosecond,
		// An ownership rebalance drains the segment boundary (about one
		// round overhead) and then streams shard data over the same
		// interconnect as a shuffle.
		MigrateFixed:   25 * time.Millisecond,
		MigratePerByte: 3 * time.Nanosecond,
	}
}

// TCP returns the cost model of the TCP/IP RPC variant of the key-value store
// evaluated in Table 4 (roughly an order of magnitude higher latency than
// RDMA).
func TCP() CostModel {
	m := RDMA()
	m.Name = "tcp"
	m.LookupLatency = 25 * time.Microsecond
	m.WriteLatency = 25 * time.Microsecond
	m.BatchShardLatency = 25 * time.Microsecond
	m.BatchPerKey = 500 * time.Nanosecond
	return m
}

// DRAM returns the cost model of a purely local lookup (a cache hit): about
// an order of magnitude cheaper than RDMA, matching the paper's remark that
// "RDMA lookups to the key-value store are in general an order of magnitude
// slower than lookups to DRAM".
func DRAM() CostModel {
	m := RDMA()
	m.Name = "dram"
	m.LookupLatency = 100 * time.Nanosecond
	m.WriteLatency = 100 * time.Nanosecond
	m.BatchShardLatency = 100 * time.Nanosecond
	m.BatchPerKey = 25 * time.Nanosecond
	return m
}

// Measured returns a cost model calibrated from real transport measurements:
// read and write are the mean round-trip times observed for one key-value
// read and write over an actual wire (the rpc store backend measures them).
// The derived model keeps the compute and shuffle shape of the RDMA model —
// those costs are unrelated to the key-value transport — but replaces every
// lookup latency with the measured values: a batch still pays one full round
// trip per shard visited (BatchShardLatency = read) plus a marginal per key
// set to read/8, the same amortization ratio the simulated models use.  A
// zero read or write falls back to the other direction, so a workload that
// only measured one direction still yields a usable model.
func Measured(name string, read, write time.Duration) CostModel {
	if read == 0 {
		read = write
	}
	if write == 0 {
		write = read
	}
	m := RDMA()
	m.Name = "measured-" + name
	m.LookupLatency = read
	m.WriteLatency = write
	m.BatchShardLatency = read
	m.BatchPerKey = read / 8
	// Measurements come from a real transport where every operation crosses
	// the wire; the measured latency applies to remote shards, keeping the
	// DRAM-speed local split of the base model for co-located shards.
	m.RemoteShardLatency = 0
	m.BatchRemoteShardLatency = 0
	return m
}

// Clock is a concurrency-safe accumulator of simulated time.  The zero value
// is ready to use.
type Clock struct {
	ns atomic.Int64
}

// Charge adds d to the simulated clock.
func (c *Clock) Charge(d time.Duration) {
	if d > 0 {
		c.ns.Add(int64(d))
	}
}

// Elapsed returns the total simulated time charged so far.
func (c *Clock) Elapsed() time.Duration { return time.Duration(c.ns.Load()) }

// Reset zeroes the clock.
func (c *Clock) Reset() { c.ns.Store(0) }
