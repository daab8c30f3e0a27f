package dht

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// The map engine — the mem backend as it was before the flat table and the
// arena replaced it — kept verbatim (Range's signature aside) as the
// reference the new engine is compared against, op for op.

var _ ShardBackend = (*refMemBackend)(nil)

// refMemShard is one in-memory shard: the primary map, the optional replica and
// the simulated failure flag.
type refMemShard struct {
	mu      sync.RWMutex
	data    map[uint64][]byte
	replica map[uint64][]byte
	failed  bool
}

// refMemBackend is the original in-memory storage engine: one map per shard.
// It also serves as the server-side engine of the rpc backend.
type refMemBackend struct {
	shards   []*refMemShard
	resident atomic.Int64 // approximate bytes held by primary values
}

func newRefMemBackend(shards int, replicate bool) *refMemBackend {
	b := &refMemBackend{shards: make([]*refMemShard, shards)}
	for i := range b.shards {
		b.shards[i] = &refMemShard{data: make(map[uint64][]byte)}
		if replicate {
			b.shards[i].replica = make(map[uint64][]byte)
		}
	}
	return b
}

func (b *refMemBackend) Kind() BackendKind { return BackendMem }

func (b *refMemBackend) Get(shard int, key uint64) ([]byte, bool, bool, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.failed {
		if sh.replica == nil {
			return nil, false, false, ErrUnavailable
		}
		v, ok := sh.replica[key]
		return v, ok, true, nil
	}
	v, ok := sh.data[key]
	return v, ok, false, nil
}

// accountStore updates the resident estimate for storing next under key,
// replacing prev bytes (0 for a new key, which also pays the key overhead).
func (b *refMemBackend) accountStore(isNew bool, prev, next int) {
	delta := int64(next - prev)
	if isNew {
		delta += memKeyOverhead
	}
	b.resident.Add(delta)
}

func (b *refMemBackend) Put(shard int, key uint64, value []byte) error {
	sh := b.shards[shard]
	cp := append([]byte(nil), value...)
	sh.mu.Lock()
	prev, existed := sh.data[key]
	sh.data[key] = cp
	if sh.replica != nil {
		sh.replica[key] = cp
	}
	sh.mu.Unlock()
	b.accountStore(!existed, len(prev), len(cp))
	return nil
}

func (b *refMemBackend) BatchGet(shard int, keys []uint64) ([][]byte, []bool, int, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.failed && sh.replica == nil {
		return nil, nil, 0, ErrUnavailable
	}
	data := sh.data
	failovers := 0
	if sh.failed {
		data = sh.replica
		failovers = len(keys)
	}
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	for i, k := range keys {
		vals[i], oks[i] = data[k]
	}
	return vals, oks, failovers, nil
}

func (b *refMemBackend) BatchWrite(shard int, pairs []Pair) error {
	sh := b.shards[shard]
	var delta int64
	sh.mu.Lock()
	for _, p := range pairs {
		cur, existed := sh.data[p.Key]
		next := append([]byte(nil), p.Value...)
		sh.data[p.Key] = next
		if sh.replica != nil {
			sh.replica[p.Key] = next
		}
		delta += int64(len(next) - len(cur))
		if !existed {
			delta += memKeyOverhead
		}
	}
	sh.mu.Unlock()
	b.resident.Add(delta)
	return nil
}

func (b *refMemBackend) BatchDelete(shard int, keys []uint64) error {
	sh := b.shards[shard]
	var delta int64
	sh.mu.Lock()
	for _, k := range keys {
		if prev, existed := sh.data[k]; existed {
			delta -= int64(len(prev)) + memKeyOverhead
			delete(sh.data, k)
		}
		if sh.replica != nil {
			delete(sh.replica, k)
		}
	}
	sh.mu.Unlock()
	b.resident.Add(delta)
	return nil
}

func (b *refMemBackend) Freeze() error { return nil }

func (b *refMemBackend) FailShard(shard int) {
	sh := b.shards[shard]
	sh.mu.Lock()
	sh.failed = true
	sh.mu.Unlock()
}

func (b *refMemBackend) RecoverShard(shard int) error {
	sh := b.shards[shard]
	sh.mu.Lock()
	sh.failed = false
	if sh.replica != nil {
		// Rebuild the primary from the replica, as a recovering server would.
		sh.data = make(map[uint64][]byte, len(sh.replica))
		for k, v := range sh.replica {
			sh.data[k] = v
		}
	}
	sh.mu.Unlock()
	return nil
}

func (b *refMemBackend) LenShard(shard int) int {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.data)
}

func (b *refMemBackend) Range(shard int, fn func(key uint64, value []byte) bool) (bool, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for k, v := range sh.data {
		if !fn(k, v) {
			return false, nil
		}
	}
	return true, nil
}

func (b *refMemBackend) Stats() BackendStats {
	return BackendStats{Kind: BackendMem, ResidentBytes: b.resident.Load()}
}

func (b *refMemBackend) Close() error { return nil }

// refTrialValue draws a value: mostly small, sometimes empty, sometimes
// large enough to roll a chunk over, rarely past the dedicated-chunk and the
// shared-chunk limits.
func refTrialValue(rnd *rand.Rand) []byte {
	var n int
	switch p := rnd.Intn(100); {
	case p < 10:
		n = 0
	case p < 88:
		n = 1 + rnd.Intn(40)
	case p < 98:
		n = 1000 + rnd.Intn(6000)
	case p < 99:
		n = chunkValueMax - 2 + rnd.Intn(4)
	default:
		n = chunkMax + 1 + rnd.Intn(1000)
	}
	v := make([]byte, n)
	if n > 0 {
		// Distinct values, and every byte of a long one pinned, without
		// drawing a quarter megabyte from the generator.
		rnd.Read(v[:min(n, 16)])
		for i := 16; i < n; i += 16 {
			copy(v[i:], v[:16])
		}
	}
	return v
}

// TestMemBackendMatchesReference drives the mem engine and the map engine it
// replaced with the same seeded op sequences and compares every return
// value, and after every op each shard's length, contents and the resident
// estimate.  The sequences cover overwrite, BatchWrite, BatchDelete and
// reinsertion, reads of present, absent and deleted keys,
// key 0 and the largest key, zero-length and larger-than-a-chunk values,
// shard failure and recovery with and without a replica, and a Freeze at a
// random point after which the same ops continue (copy-on-write).
func TestMemBackendMatchesReference(t *testing.T) {
	matchReference(t, func(shards int, replicate bool) refCandidate {
		return newMemBackend(shards, replicate)
	})
}

// TestRPCBackendMatchesReference replays the same sequences over the rpc
// engine, so every value, failover flag and ErrUnavailable crosses the wire
// and back before it is compared.
func TestRPCBackendMatchesReference(t *testing.T) {
	matchReference(t, func(shards int, replicate bool) refCandidate {
		b, err := newRPCBackend(shards, replicate, nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
}

// refCandidate is an engine compared against the reference.
type refCandidate interface {
	ShardBackend
	Reserve(keys int)
}

func matchReference(t *testing.T, newEngine func(shards int, replicate bool) refCandidate) {
	keys := []uint64{0, math.MaxUint64, 1 << 63}
	for k := uint64(1); k <= 40; k++ {
		keys = append(keys, k, k*0x9e3779b97f4a7c15)
	}
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		rnd := rand.New(rand.NewSource(int64(trial)))
		shards := 1 + rnd.Intn(3)
		replicate := trial%2 == 0
		got, want := newEngine(shards, replicate), newRefMemBackend(shards, replicate)
		if trial%3 == 0 {
			got.Reserve(rnd.Intn(200))
		}
		ops := 150 + rnd.Intn(150)
		freezeAt := rnd.Intn(2 * ops) // half the trials never freeze
		shardOf := func(k uint64) int { return int(k % uint64(shards)) }
		pick := func() uint64 { return keys[rnd.Intn(len(keys))] }
		// shardKeys draws up to n keys that live on one shard.
		shardKeys := func(n int) (int, []uint64) {
			shard := rnd.Intn(shards)
			var ks []uint64
			for i := 0; i < 4*n && len(ks) < n; i++ {
				if k := pick(); shardOf(k) == shard {
					ks = append(ks, k)
				}
			}
			return shard, ks
		}
		for op := 0; op < ops; op++ {
			desc := ""
			if op == freezeAt {
				if err := got.Freeze(); err != nil {
					t.Fatal(err)
				}
				want.Freeze()
			}
			switch p := rnd.Intn(100); {
			case p < 33:
				k, v := pick(), refTrialValue(rnd)
				desc = fmt.Sprintf("Put(%d, %d bytes)", k, len(v))
				if eg, ew := got.Put(shardOf(k), k, v), want.Put(shardOf(k), k, v); eg != nil || ew != nil {
					t.Fatalf("trial %d op %d %s: errors %v / %v", trial, op, desc, eg, ew)
				}
			case p < 45:
				shard, ks := shardKeys(1 + rnd.Intn(8))
				pairs := make([]Pair, len(ks))
				for i, k := range ks {
					pairs[i] = Pair{Key: k, Value: refTrialValue(rnd)}
				}
				desc = fmt.Sprintf("BatchWrite(shard %d, %d pairs)", shard, len(pairs))
				if eg, ew := got.BatchWrite(shard, pairs), want.BatchWrite(shard, pairs); eg != nil || ew != nil {
					t.Fatalf("trial %d op %d %s: errors %v / %v", trial, op, desc, eg, ew)
				}
			case p < 55:
				shard, ks := shardKeys(1 + rnd.Intn(8))
				desc = fmt.Sprintf("BatchDelete(shard %d, %v)", shard, ks)
				if eg, ew := got.BatchDelete(shard, ks), want.BatchDelete(shard, ks); eg != nil || ew != nil {
					t.Fatalf("trial %d op %d %s: errors %v / %v", trial, op, desc, eg, ew)
				}
			case p < 75:
				k := pick()
				desc = fmt.Sprintf("Get(%d)", k)
				vg, okg, fg, eg := got.Get(shardOf(k), k)
				vw, okw, fw, ew := want.Get(shardOf(k), k)
				if okg != okw || fg != fw || !errors.Is(eg, ew) || !bytes.Equal(vg, vw) {
					t.Fatalf("trial %d op %d %s: got (%d bytes, %v, %v, %v), reference (%d bytes, %v, %v, %v)",
						trial, op, desc, len(vg), okg, fg, eg, len(vw), okw, fw, ew)
				}
			case p < 88:
				shard, ks := shardKeys(rnd.Intn(10))
				desc = fmt.Sprintf("BatchGet(shard %d, %v)", shard, ks)
				vg, okg, fg, eg := got.BatchGet(shard, ks)
				vw, okw, fw, ew := want.BatchGet(shard, ks)
				if fg != fw || !errors.Is(eg, ew) || len(vg) != len(vw) || len(okg) != len(okw) {
					t.Fatalf("trial %d op %d %s: got (%d vals, %d failovers, %v), reference (%d vals, %d failovers, %v)",
						trial, op, desc, len(vg), fg, eg, len(vw), fw, ew)
				}
				for i := range vg {
					if okg[i] != okw[i] || !bytes.Equal(vg[i], vw[i]) {
						t.Fatalf("trial %d op %d %s: key %d differs", trial, op, desc, ks[i])
					}
				}
			case p < 94:
				shard := rnd.Intn(shards)
				desc = fmt.Sprintf("FailShard(%d)", shard)
				got.FailShard(shard)
				want.FailShard(shard)
			default:
				shard := rnd.Intn(shards)
				desc = fmt.Sprintf("RecoverShard(%d)", shard)
				if eg, ew := got.RecoverShard(shard), want.RecoverShard(shard); eg != nil || ew != nil {
					t.Fatalf("trial %d op %d %s: errors %v / %v", trial, op, desc, eg, ew)
				}
			}
			for shard := 0; shard < shards; shard++ {
				if lg, lw := got.LenShard(shard), want.LenShard(shard); lg != lw {
					t.Fatalf("trial %d op %d %s: LenShard(%d) = %d, reference %d", trial, op, desc, shard, lg, lw)
				}
				contents := want.shards[shard].data
				seen := 0
				completed, err := got.Range(shard, func(k uint64, v []byte) bool {
					seen++
					if w, ok := contents[k]; !ok || !bytes.Equal(w, v) {
						t.Fatalf("trial %d op %d %s: Range(%d) yields key %d with %d bytes; reference has it %v with %d",
							trial, op, desc, shard, k, len(v), ok, len(w))
					}
					return true
				})
				if !completed || err != nil || seen != len(contents) {
					t.Fatalf("trial %d op %d %s: Range(%d) yielded %d pairs (completed %v, err %v), reference %d",
						trial, op, desc, shard, seen, completed, err, len(contents))
				}
				if len(contents) > 1 {
					seen = 0
					completed, _ = got.Range(shard, func(uint64, []byte) bool { seen++; return false })
					if completed || seen != 1 {
						t.Fatalf("trial %d op %d: an early stop yielded %d pairs, completed %v", trial, op, seen, completed)
					}
				}
			}
			if rg, rw := got.Stats().ResidentBytes, want.Stats().ResidentBytes; rg != rw {
				t.Fatalf("trial %d op %d %s: ResidentBytes = %d, reference %d", trial, op, desc, rg, rw)
			}
		}
		if err := got.Close(); err != nil {
			t.Fatalf("trial %d: Close: %v", trial, err)
		}
	}
}
