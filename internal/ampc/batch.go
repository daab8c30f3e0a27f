package ampc

import (
	"fmt"
	"sync"

	"ampcgraph/internal/dht"
	"ampcgraph/internal/simtime"
)

// Batched access to the hash tables.
//
// The per-request overhead of the key-value store (a lock acquisition, a
// hash, a latency round trip) is what the optimizations of §5.3 amortize.
// ReadMany and WriteMany let algorithm code hand the runtime a whole fan-out
// (a frontier of neighbor lists, a round's worth of parent pointers) in one
// call; the store groups the keys by shard and visits every shard once.

// ReadMany reads all keys from the round's input hash table in one
// shard-grouped batch.  vals[i] and oks[i] correspond to keys[i].  With
// caching enabled, cached keys are served locally at DRAM latency and only
// the remainder travels to the store.
func (c *Ctx) ReadMany(keys []uint64) ([][]byte, []bool, error) {
	if c.read == nil {
		return nil, nil, fmt.Errorf("ampc: round has no input store")
	}
	if len(keys) == 0 {
		return nil, nil, nil
	}
	c.queries.Add(int64(len(keys)))
	if c.cache == nil {
		return c.fetch(keys)
	}
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	missPos := c.cache.PeekMany(keys, vals, oks, nil)
	c.count(simtime.CacheHits, len(keys)-len(missPos))
	if len(missPos) == 0 {
		return vals, oks, nil
	}
	// Deduplicate uncached keys so a repeated key is fetched — and counted
	// as a cache miss — once, as on the single-key path where only the
	// first access reaches the store.
	missKeys := make([]uint64, 0, len(missPos))
	missIdx := make([]int, len(missPos)) // index into missKeys
	index := make(map[uint64]int, len(missPos))
	for t, p := range missPos {
		k := keys[p]
		j, seen := index[k]
		if !seen {
			j = len(missKeys)
			index[k] = j
			missKeys = append(missKeys, k)
		}
		missIdx[t] = j
	}
	mv, mo, err := c.fetch(missKeys)
	if err != nil {
		return nil, nil, err
	}
	c.cache.FillMany(missKeys, mv, mo)
	for t, p := range missPos {
		vals[p] = mv[missIdx[t]]
		oks[p] = mo[missIdx[t]]
	}
	return vals, oks, nil
}

// fetch reads keys from the store in one shard-grouped batch, past the
// cache, counting the batch.
func (c *Ctx) fetch(keys []uint64) ([][]byte, []bool, error) {
	vals, oks, visits, err := c.read.View(c.Machine).BatchGet(keys)
	if err != nil {
		return nil, nil, err
	}
	c.countBatch(false, len(keys), visits)
	return vals, oks, nil
}

// readScratch holds the slices one caller of readUnique reuses from fetch
// cycle to fetch cycle.
type readScratch struct {
	vals     [][]byte
	oks      []bool
	missPos  []int
	missKeys []uint64
}

// readUnique is ReadMany for keys the caller has already made distinct — one
// Stream cycle's — so nothing is deduplicated again, and its results live in
// sc: valid until the next call with the same scratch.  Its counts are
// ReadMany's, key for key.
func (c *Ctx) readUnique(keys []uint64, sc *readScratch) ([][]byte, []bool, error) {
	if c.read == nil {
		return nil, nil, fmt.Errorf("ampc: round has no input store")
	}
	c.queries.Add(int64(len(keys)))
	if c.cache == nil {
		return c.fetch(keys)
	}
	if cap(sc.vals) < len(keys) {
		sc.vals = make([][]byte, len(keys))
		sc.oks = make([]bool, len(keys))
	}
	vals, oks := sc.vals[:len(keys)], sc.oks[:len(keys)]
	sc.missPos = c.cache.PeekMany(keys, vals, oks, sc.missPos[:0])
	c.count(simtime.CacheHits, len(keys)-len(sc.missPos))
	if len(sc.missPos) == 0 {
		return vals, oks, nil
	}
	sc.missKeys = sc.missKeys[:0]
	for _, p := range sc.missPos {
		sc.missKeys = append(sc.missKeys, keys[p])
	}
	mv, mo, err := c.fetch(sc.missKeys)
	if err != nil {
		return nil, nil, err
	}
	c.cache.FillMany(sc.missKeys, mv, mo)
	for t, p := range sc.missPos {
		vals[p], oks[p] = mv[t], mo[t]
	}
	return vals, oks, nil
}

// WriteMany stores all pairs into the given output hash table in one
// shard-grouped batch.  Under a fault budget the batch is buffered and
// applied — with its shard-visit accounting — when the sub-round completes
// without error (see recover.go).
func (c *Ctx) WriteMany(out *dht.Store, pairs []dht.Pair) error {
	if c.buffered {
		return c.bufferBatch(out, pairs)
	}
	visits, err := out.View(c.Machine).BatchPut(pairs)
	if err != nil {
		return err
	}
	c.countBatch(true, len(pairs), visits)
	return nil
}

// countBatch counts one shard-grouped batch read (or write) of keys keys
// that made the given shard visits.
func (c *Ctx) countBatch(write bool, keys int, visits dht.Visits) {
	batches, local, remote, keyed := simtime.BatchReads, simtime.BatchReadLocal, simtime.BatchReadRemote, simtime.BatchReadKeys
	if write {
		batches, local, remote, keyed = simtime.BatchWrites, simtime.BatchWriteLocal, simtime.BatchWriteRemote, simtime.BatchWriteKeys
	}
	c.count(batches, 1)
	c.count(local, visits.Local)
	c.count(remote, visits.Remote)
	c.count(keyed, keys)
}

// NumBlocks returns the number of lock-step blocks of the given size needed
// to cover items work items.
func NumBlocks(items, size int) int {
	if items <= 0 {
		return 0
	}
	if size <= 0 {
		size = 1
	}
	return (items + size - 1) / size
}

// BlockBounds returns the half-open work-item range [lo, hi) of the given
// block.
func BlockBounds(block, size, items int) (lo, hi int) {
	lo = block * size
	hi = lo + size
	if hi > items {
		hi = items
	}
	return lo, hi
}

// WriteTable runs one round that stores value(i) under key i for every work
// item i in [0, items), reading nothing.  See WriteTableRound.
func (j *Job) WriteTable(name string, store *dht.Store, items, computePerItem int, value func(int) []byte) error {
	return j.Run(j.WriteTableRound(name, store, items, computePerItem, value))
}

// WriteTableRound builds (without running) the round that stores value(i)
// under key i for every work item i in [0, items), reading nothing and
// declaring its single store write for the segment executor.
// computePerItem units of local computation are charged per item.  With
// batching enabled the items are written in shard-grouped blocks of
// BatchSize keys; otherwise one Put per key, exactly as the hand-written
// kv-write rounds did.  Items are partitioned by key ownership, so under the
// owner-affine placement every machine writes its own keys to its co-located
// shards — and the write declaration carries those per-machine spans
// (WriteRanges), so the segment executor can overlap later sub-rounds
// that only touch other machines' ranges.
func (s *Session) WriteTableRound(name string, store *dht.Store, items, computePerItem int, value func(int) []byte) Round {
	store.Reserve(items) // one key per item: let the engine size its tables once
	if !s.cfg.Batch {
		return Round{
			Name:        name,
			Items:       items,
			Writes:      []Access{RangedBy(store, s.WriteRanges(items))},
			Partitioner: s.OwnerPartitioner(items),
			Body: func(ctx *Ctx, item int) error {
				ctx.ChargeCompute(computePerItem)
				return ctx.Write(store, uint64(item), value(item))
			},
		}
	}
	size := s.cfg.BatchSize
	// A worker's pair block, reused across the blocks it writes: WriteMany
	// does not keep the slice (the store, or the fault-budget buffer, copies).
	var scratch sync.Pool
	return Round{
		Name:        name,
		Items:       NumBlocks(items, size),
		Writes:      []Access{RangedBy(store, s.WriteRanges(items))},
		Partitioner: s.BlockOwnerPartitioner(size, items),
		Body: func(ctx *Ctx, block int) error {
			lo, hi := BlockBounds(block, size, items)
			buf, _ := scratch.Get().(*[]dht.Pair)
			if buf == nil {
				buf = new([]dht.Pair)
			}
			pairs := (*buf)[:0]
			for i := lo; i < hi; i++ {
				pairs = append(pairs, dht.Pair{Key: uint64(i), Value: value(i)})
			}
			ctx.ChargeCompute(computePerItem * (hi - lo))
			err := ctx.WriteMany(store, pairs)
			clear(pairs) // do not pin the values while the block sits in the pool
			*buf = pairs
			scratch.Put(buf)
			return err
		},
	}
}
