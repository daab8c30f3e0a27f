package simtime

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"
)

// The per-operation cost methods CostModel carried before Price, kept as the
// reference Price is held against: each prices one operation, resolving the
// zero-field fallbacks on every call.

// refRemoteSingle resolves the remote single-operation latency for a
// direction's base latency (LookupLatency or WriteLatency).
func refRemoteSingle(m CostModel, single time.Duration) time.Duration {
	if m.RemoteShardLatency != 0 {
		return m.RemoteShardLatency
	}
	return single
}

// refLocalSingle resolves the co-located single-operation latency; without
// an explicit split it equals the remote latency.
func refLocalSingle(m CostModel, single time.Duration) time.Duration {
	if m.LocalShardLatency != 0 {
		return m.LocalShardLatency
	}
	return refRemoteSingle(m, single)
}

// refReadCost returns the modeled latency of one key-value read, served
// locally (by a co-located shard) or remotely.
func refReadCost(m CostModel, local bool) time.Duration {
	if local {
		return refLocalSingle(m, m.LookupLatency)
	}
	return refRemoteSingle(m, m.LookupLatency)
}

// refWriteCost returns the modeled latency of one key-value write, served
// locally (by a co-located shard) or remotely.
func refWriteCost(m CostModel, local bool) time.Duration {
	if local {
		return refLocalSingle(m, m.WriteLatency)
	}
	return refRemoteSingle(m, m.WriteLatency)
}

// refBatchDefaults resolves the batch fields against a single-operation
// latency.
func refBatchDefaults(m CostModel, single time.Duration) (perShard, perKey time.Duration) {
	perShard = m.BatchShardLatency
	if perShard == 0 {
		perShard = refRemoteSingle(m, single)
	}
	perKey = m.BatchPerKey
	if perKey == 0 {
		perKey = single / 8
	}
	return perShard, perKey
}

// refBatchLocal resolves the per-shard cost of a co-located batched shard
// visit; without an explicit split it equals the remote batch cost.
func refBatchLocal(m CostModel, single time.Duration) time.Duration {
	if m.BatchLocalShardLatency != 0 {
		return m.BatchLocalShardLatency
	}
	if m.LocalShardLatency != 0 {
		return m.LocalShardLatency
	}
	perShard, _ := refBatchDefaults(m, single)
	return perShard
}

// refBatchRemote resolves the per-remote-shard cost of a batched operation.
func refBatchRemote(m CostModel, single time.Duration) time.Duration {
	if m.BatchRemoteShardLatency != 0 {
		return m.BatchRemoteShardLatency
	}
	perShard, _ := refBatchDefaults(m, single)
	return perShard
}

// refBatchReadCostSplit returns the modeled latency of one batched read that
// visited localVisits co-located shards and remoteVisits remote shards to
// serve keys keys.
func refBatchReadCostSplit(m CostModel, localVisits, remoteVisits, keys int) time.Duration {
	_, perKey := refBatchDefaults(m, m.LookupLatency)
	return time.Duration(localVisits)*refBatchLocal(m, m.LookupLatency) +
		time.Duration(remoteVisits)*refBatchRemote(m, m.LookupLatency) +
		time.Duration(keys)*perKey
}

// refBatchWriteCostSplit returns the modeled latency of one batched write
// that visited localVisits co-located shards and remoteVisits remote shards
// to store keys keys.
func refBatchWriteCostSplit(m CostModel, localVisits, remoteVisits, keys int) time.Duration {
	_, perKey := refBatchDefaults(m, m.WriteLatency)
	return time.Duration(localVisits)*refBatchLocal(m, m.WriteLatency) +
		time.Duration(remoteVisits)*refBatchRemote(m, m.WriteLatency) +
		time.Duration(keys)*perKey
}

// Fuzz model kinds: the three transports, a measured model, a random model
// with random fallback fields zeroed, and a legacy model that sets only the
// single-operation latencies.
const (
	fuzzRDMA = iota
	fuzzTCP
	fuzzDRAM
	fuzzMeasured
	fuzzRandom
	fuzzLegacy
	fuzzModels
)

// fuzzModel draws the model of one FuzzPrice input.
func fuzzModel(kind uint8, seed int64) CostModel {
	rnd := rand.New(rand.NewSource(seed))
	lat := func() time.Duration { return time.Duration(rnd.Int63n(int64(50 * time.Microsecond))) }
	switch kind % fuzzModels {
	case fuzzRDMA:
		return RDMA()
	case fuzzTCP:
		return TCP()
	case fuzzDRAM:
		return DRAM()
	case fuzzMeasured:
		r := 1 + lat()
		return Measured("fuzz", r, r+1+lat())
	case fuzzLegacy:
		return CostModel{Name: "legacy", LookupLatency: lat(), WriteLatency: lat()}
	}
	m := CostModel{Name: "random", LookupLatency: lat(), WriteLatency: lat(), ComputePerItem: lat(),
		ShuffleFixed: lat(), ShufflePerByte: lat() / 1000, RoundOverhead: lat()}
	for _, f := range []*time.Duration{&m.BatchShardLatency, &m.BatchPerKey, &m.LocalShardLatency,
		&m.RemoteShardLatency, &m.BatchLocalShardLatency, &m.BatchRemoteShardLatency} {
		if rnd.Intn(2) == 0 {
			*f = lat()
		}
	}
	return m
}

// Fuzz op codes: each op is four bytes, the code and three arguments.
const (
	opReadLocal = iota
	opReadRemote
	opWriteLocal
	opWriteRemote
	opCacheHit
	opBatchRead  // a local visits, b remote visits, a+b+c keys
	opBatchWrite // the same
	opCompute    // a*256+b items
	opRound
	opShuffle // a*256+b bytes
	numOps
)

// FuzzPrice holds Price against the per-operation reference: for a drawn
// model, op sequence and thread count, pricing the summed counts must equal
// summing the reference prices of the ops one by one — the key-value part
// divided by threads after the sum, as the runtime's machine busy time is —
// to the nanosecond.
func FuzzPrice(f *testing.F) {
	ops := func(codes ...byte) []byte { return codes }
	// The local/remote split: one op of each kind and side under RDMA and
	// TCP, and the same ops under a legacy model without the split.
	single := ops(opReadLocal, 0, 0, 0, opReadRemote, 0, 0, 0, opWriteLocal, 0, 0, 0, opWriteRemote, 0, 0, 0)
	for _, kind := range []uint8{fuzzRDMA, fuzzTCP, fuzzLegacy} {
		f.Add(kind, int64(5), single, uint8(1))
	}
	// Batches: 64 keys on one shard, 2 shards for 10 keys, all-remote,
	// half and all-local visits, and the zero-field fallbacks.
	batches := ops(opBatchRead, 0, 1, 63, opBatchRead, 0, 2, 8, opBatchWrite, 0, 3, 4,
		opBatchRead, 0, 4, 60, opBatchRead, 2, 2, 60, opBatchRead, 4, 0, 60, opBatchWrite, 4, 0, 60)
	for _, kind := range []uint8{fuzzRDMA, fuzzTCP, fuzzLegacy, fuzzRandom} {
		f.Add(kind, int64(8), batches, uint8(1))
	}
	// Everything at once, on four threads and on the measured model.
	mixed := ops(opCacheHit, 0, 0, 0, opCompute, 1, 7, 0, opRound, 0, 0, 0, opShuffle, 200, 3, 0,
		opReadRemote, 0, 0, 0, opBatchWrite, 1, 1, 1)
	f.Add(uint8(fuzzMeasured), int64(3), mixed, uint8(4))
	f.Add(uint8(fuzzRandom), int64(11), append(single, mixed...), uint8(3))

	f.Fuzz(func(t *testing.T, kind uint8, seed int64, code []byte, threads uint8) {
		m := fuzzModel(kind, seed)
		th := 1 + int(threads%8)
		var w Work
		var kv, rest time.Duration
		for ; len(code) >= 4; code = code[4:] {
			a, b, c := int(code[1]), int(code[2]), int(code[3])
			n := int64(binary.BigEndian.Uint16(code[1:3]))
			switch code[0] % numOps {
			case opReadLocal:
				w[LocalReads]++
				kv += refReadCost(m, true)
			case opReadRemote:
				w[RemoteReads]++
				kv += refReadCost(m, false)
			case opWriteLocal:
				w[LocalWrites]++
				kv += refWriteCost(m, true)
			case opWriteRemote:
				w[RemoteWrites]++
				kv += refWriteCost(m, false)
			case opCacheHit:
				w[CacheHits]++
				kv += DRAM().LookupLatency
			case opBatchRead:
				w[BatchReads]++
				w[BatchReadLocal] += int64(a)
				w[BatchReadRemote] += int64(b)
				w[BatchReadKeys] += int64(a + b + c)
				kv += refBatchReadCostSplit(m, a, b, a+b+c)
			case opBatchWrite:
				w[BatchWrites]++
				w[BatchWriteLocal] += int64(a)
				w[BatchWriteRemote] += int64(b)
				w[BatchWriteKeys] += int64(a + b + c)
				kv += refBatchWriteCostSplit(m, a, b, a+b+c)
			case opCompute:
				w[Compute] += n
				rest += time.Duration(n) * m.ComputePerItem
			case opRound:
				w[Rounds]++
				rest += m.RoundOverhead
			case opShuffle:
				w[Shuffles]++
				w[ShuffleBytes] += n
				rest += m.ShuffleFixed + time.Duration(n)*m.ShufflePerByte
			}
		}
		if got, want := m.Price(w, th), kv/time.Duration(th)+rest; got != want {
			t.Fatalf("model %+v, threads %d, counts %v: Price %v, reference %v", m, th, w, got, want)
		}
	})
}
