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
// arena replaced it — kept verbatim (Range's signature aside, and less the
// replica and failure flag that moved to the Store façade) as the reference
// the new engine is compared against, op for op.

var _ ShardBackend = (*refMemBackend)(nil)

// refMemShard is one in-memory shard: the map of its keys.
type refMemShard struct {
	mu   sync.RWMutex
	data map[uint64][]byte
}

// refMemBackend is the original in-memory storage engine: one map per shard.
// Replication and shard failure, which it also held, are the Store façade's
// now (failover.go), so the reference keeps only the bytes.
type refMemBackend struct {
	shards   []*refMemShard
	resident atomic.Int64 // approximate bytes held by values
}

func newRefMemBackend(shards int) *refMemBackend {
	b := &refMemBackend{shards: make([]*refMemShard, shards)}
	for i := range b.shards {
		b.shards[i] = &refMemShard{data: make(map[uint64][]byte)}
	}
	return b
}

func (b *refMemBackend) Kind() BackendKind { return BackendMem }

func (b *refMemBackend) Get(shard int, key uint64) ([]byte, bool, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.data[key]
	return v, ok, nil
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
	sh.mu.Unlock()
	b.accountStore(!existed, len(prev), len(cp))
	return nil
}

func (b *refMemBackend) BatchGet(shard int, keys []uint64) ([][]byte, []bool, error) {
	sh := b.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	for i, k := range keys {
		vals[i], oks[i] = sh.data[k]
	}
	return vals, oks, nil
}

func (b *refMemBackend) BatchWrite(shard int, pairs []Pair) error {
	sh := b.shards[shard]
	var delta int64
	sh.mu.Lock()
	for _, p := range pairs {
		cur, existed := sh.data[p.Key]
		next := append([]byte(nil), p.Value...)
		sh.data[p.Key] = next
		delta += int64(len(next) - len(cur))
		if !existed {
			delta += memKeyOverhead
		}
	}
	sh.mu.Unlock()
	b.resident.Add(delta)
	return nil
}

func (b *refMemBackend) Freeze() error { return nil }

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
// estimate.  The sequences cover overwrite, BatchWrite, reads of present and
// absent keys, key 0 and the largest key, zero-length and larger-than-a-chunk values, and
// a Freeze at a random point after which the same ops continue
// (copy-on-write).  Shard failure and recovery left the engines for the
// Store façade; the failover and replica tests of backend_test.go and
// failover_batch_test.go cover them on every engine.
func TestMemBackendMatchesReference(t *testing.T) {
	matchReference(t, func(shards int) refCandidate {
		return newMemBackend(shards)
	})
}

// TestRPCBackendMatchesReference replays the same sequences over the rpc
// engine, so every value and present flag crosses the wire and back before
// it is compared.
func TestRPCBackendMatchesReference(t *testing.T) {
	matchReference(t, func(shards int) refCandidate {
		b, err := newRPCBackend(shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
}

// TestDiskBackendMatchesReference replays the same sequences over the disk
// engine, every write a positioned append to a shard log and every read a
// positioned read of one, and at the end of each trial reopens the logs and
// compares what they replay to with the reference.
func TestDiskBackendMatchesReference(t *testing.T) {
	matchReference(t, func(shards int) refCandidate {
		b, err := newDiskBackend(shards, t.TempDir())
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

func matchReference(t *testing.T, newEngine func(shards int) refCandidate) {
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
		got, want := newEngine(shards), newRefMemBackend(shards)
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
			case p < 75:
				k := pick()
				desc = fmt.Sprintf("Get(%d)", k)
				vg, okg, eg := got.Get(shardOf(k), k)
				vw, okw, ew := want.Get(shardOf(k), k)
				if okg != okw || !errors.Is(eg, ew) || !bytes.Equal(vg, vw) {
					t.Fatalf("trial %d op %d %s: got (%d bytes, %v, %v), reference (%d bytes, %v, %v)",
						trial, op, desc, len(vg), okg, eg, len(vw), okw, ew)
				}
			case p < 88:
				shard, ks := shardKeys(rnd.Intn(10))
				desc = fmt.Sprintf("BatchGet(shard %d, %v)", shard, ks)
				vg, okg, eg := got.BatchGet(shard, ks)
				vw, okw, ew := want.BatchGet(shard, ks)
				if !errors.Is(eg, ew) || len(vg) != len(vw) || len(okg) != len(okw) {
					t.Fatalf("trial %d op %d %s: got (%d vals, %v), reference (%d vals, %v)",
						trial, op, desc, len(vg), eg, len(vw), ew)
				}
				for i := range vg {
					if okg[i] != okw[i] || !bytes.Equal(vg[i], vw[i]) {
						t.Fatalf("trial %d op %d %s: key %d differs", trial, op, desc, ks[i])
					}
				}
			default:
				// Shard failure and recovery, now the façade's: the draw of
				// the shard stays, so every other op replays as before.
				desc = fmt.Sprintf("failure op on shard %d, skipped", rnd.Intn(shards))
			}
			matchContents(t, got, want, fmt.Sprintf("trial %d op %d %s", trial, op, desc))
		}
		if err := got.Close(); err != nil {
			t.Fatalf("trial %d: Close: %v", trial, err)
		}
		if d, ok := got.(*diskBackend); ok {
			reopened, err := newDiskBackend(shards, d.dir)
			if err != nil {
				t.Fatalf("trial %d: reopening the logs: %v", trial, err)
			}
			matchContents(t, reopened, want, fmt.Sprintf("trial %d, the replayed logs", trial))
			if err := reopened.Close(); err != nil {
				t.Fatalf("trial %d: Close of the reopened engine: %v", trial, err)
			}
		}
	}
}

// matchContents compares each shard's length and contents, an early-stopped
// Range, and the resident estimate of got with the reference's.  The disk
// engine keeps only its index resident, diskKeyBytes per key.
func matchContents(t *testing.T, got ShardBackend, want *refMemBackend, where string) {
	t.Helper()
	keys := 0
	for shard := range want.shards {
		if lg, lw := got.LenShard(shard), want.LenShard(shard); lg != lw {
			t.Fatalf("%s: LenShard(%d) = %d, reference %d", where, shard, lg, lw)
		}
		contents := want.shards[shard].data
		keys += len(contents)
		seen := 0
		completed, err := got.Range(shard, func(k uint64, v []byte) bool {
			seen++
			if w, ok := contents[k]; !ok || !bytes.Equal(w, v) {
				t.Fatalf("%s: Range(%d) yields key %d with %d bytes; reference has it %v with %d",
					where, shard, k, len(v), ok, len(w))
			}
			return true
		})
		if !completed || err != nil || seen != len(contents) {
			t.Fatalf("%s: Range(%d) yielded %d pairs (completed %v, err %v), reference %d",
				where, shard, seen, completed, err, len(contents))
		}
		if len(contents) > 1 {
			seen = 0
			completed, _ = got.Range(shard, func(uint64, []byte) bool { seen++; return false })
			if completed || seen != 1 {
				t.Fatalf("%s: an early stop yielded %d pairs, completed %v", where, seen, completed)
			}
		}
	}
	resident := want.Stats().ResidentBytes
	if got.Kind() == BackendDisk {
		resident = diskKeyBytes * int64(keys)
	}
	if rg := got.Stats().ResidentBytes; rg != resident {
		t.Fatalf("%s: ResidentBytes = %d, reference %d", where, rg, resident)
	}
}
