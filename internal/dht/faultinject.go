package dht

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"ampcgraph/internal/rng"
)

// Deterministic fault injection.
//
// A FaultPlan wraps any ShardBackend in a seeded chaos layer (installed via
// Options.Faults) that injects the failure modes a real deployment sees —
// transient per-op errors, latency spikes, whole-shard crashes with scheduled
// recovery, torn disk tails at the Freeze durability point, and dropped rpc
// connections — while keeping every run byte-identical to a fault-free one.
//
// Determinism is the point: every decision is a pure hash of the plan seed
// and the op's identity (kind, shard, key) plus an occurrence counter, never
// of wall-clock time or goroutine scheduling.  A faulty identity fails its
// FIRST occurrence and succeeds afterwards, so whichever racing caller
// arrives first absorbs the fault, retries (or triggers a sub-round
// re-execution in the ampc runtime), and observes exactly the bytes a clean
// run observes.  Faults are injected BEFORE the wrapped engine applies the
// op, so a retried write applies exactly once.
//
// Fatal faults (PFatal) are restricted to reads: they model a lookup that
// stays stuck past any retry budget, and reads are the only ops the runtime
// can safely re-execute at the sub-round level (writes are buffered per
// sub-round under Config.FaultBudget and discarded on failure).

// errInjectedTransient marks an injected fault that a retry may absorb.
var errInjectedTransient = errors.New("dht: injected transient fault")

// errInjectedFatal marks an injected fault that no retry absorbs — it must
// surface to the caller (and, in the ampc runtime, fail the sub-round).
var errInjectedFatal = errors.New("dht: injected fatal fault")

// ShardCrash schedules one whole-shard failure: the shard fails once it has
// served AfterReads read visits and recovers after RecoverReads further read
// visits arrive (failed reads count, so retries drain the outage).  On a
// replicated store the reads in the window are served by the replica and
// counted as failovers; on an unreplicated store they return ErrUnavailable
// until the recovery point.
type ShardCrash struct {
	Shard        int
	AfterReads   int64
	RecoverReads int64
}

// FaultPlan is a deterministic, seeded schedule of injected faults.  All
// probabilities are per op identity (kind, shard, key) and fire on the
// identity's first occurrence only; the zero value injects nothing.
type FaultPlan struct {
	// Seed drives every injection decision.
	Seed int64
	// PTransient is the probability that an identity's first read or write
	// fails with a retryable error before reaching the engine.
	PTransient float64
	// PFatal is the probability that an identity's first read fails with a
	// non-retryable error (a stuck lookup); the ampc runtime recovers by
	// re-executing the failing sub-round (Config.FaultBudget).
	PFatal float64
	// PSpike is the probability that an identity's first read sleeps for
	// Spike before being served — the tail-latency case hedged batch reads
	// (RetryPolicy.HedgeAfter) are designed to cut.
	PSpike float64
	Spike  time.Duration
	// Crashes schedules whole-shard failures with recovery.
	Crashes []ShardCrash
	// TornTail appends a seeded, partially-written record to every disk
	// shard log after the Freeze fsync, simulating a crash mid-write at the
	// durability point.  Replay truncates it on reopen; live reads never see
	// it (reads go through the extent index).  Ignored by non-disk engines.
	TornTail bool
	// PDrop is the probability that the rpc backend's client connection is
	// dropped before a call, exercising its reconnect path.  Ignored by
	// non-rpc engines.
	PDrop float64
}

// injects reports whether the plan injects anything at the ShardBackend
// seam (PDrop is handled inside the rpc transport, not by the wrapper).
func (p *FaultPlan) injects() bool {
	return p.PTransient > 0 || p.PFatal > 0 || p.PSpike > 0 ||
		len(p.Crashes) > 0 || p.TornTail
}

// Distinct hash streams per decision kind, salted into the plan seed so the
// same identity draws independent coins for each fault class.
const (
	faultSaltTransient = 0x7472616e7369656e // "transien"
	faultSaltFatal     = 0x666174616c       // "fatal"
	faultSaltSpike     = 0x7370696b65       // "spike"
	faultSaltTorn      = 0x746f726e         // "torn"
	faultSaltDrop      = 0x64726f70         // "drop" (rpc connection drops)
)

// occKey identifies one op for occurrence counting: reads and writes of the
// same key draw from separate streams.
type occKey struct {
	write bool
	shard int32
	key   uint64
}

// crashState tracks one scheduled ShardCrash through pending → active → done.
type crashState struct {
	spec      ShardCrash
	active    bool
	done      bool
	recoverAt int64
}

// faultBackend is the injecting ShardBackend wrapper.  Control-plane methods
// (Kind, FailShard, LenShard, Range, Stats, Close, BatchDelete) pass through
// via the embedded engine.
type faultBackend struct {
	ShardBackend
	plan *FaultPlan

	mu      sync.Mutex
	occ     map[occKey]uint32
	reads   []int64 // per-shard read visits observed by the injector
	crashes []crashState
}

// newFaultBackend wraps engine with plan.  The caller has checked
// plan.injects().
func newFaultBackend(engine ShardBackend, shards int, plan *FaultPlan) *faultBackend {
	b := &faultBackend{
		ShardBackend: engine,
		plan:         plan,
		occ:          make(map[occKey]uint32),
		reads:        make([]int64, shards),
		crashes:      make([]crashState, len(plan.Crashes)),
	}
	for i, c := range plan.Crashes {
		c.Shard = ((c.Shard % shards) + shards) % shards
		b.crashes[i] = crashState{spec: c}
	}
	return b
}

// identity mixes an op's (kind, shard, key) into the uint64 hashed against
// each decision stream.
func identity(write bool, shard int, key uint64) uint64 {
	k := uint64(0)
	if write {
		k = 1
	}
	return rng.Hash64(int64(shard)*2+int64(k)+1, key)
}

// draw returns the deterministic uniform coin for id in the salted stream.
func (b *faultBackend) draw(salt int64, id uint64) float64 {
	return rng.UniformFloat(b.plan.Seed^salt, id)
}

// noteRead advances shard's read clock under b.mu and fires any crash
// transition due at this point.  It returns the recovery error, if the
// scheduled RecoverShard failed.
func (b *faultBackend) noteRead(shard int) error {
	b.reads[shard]++
	n := b.reads[shard]
	var err error
	for i := range b.crashes {
		c := &b.crashes[i]
		if c.spec.Shard != shard || c.done {
			continue
		}
		if !c.active {
			if n >= c.spec.AfterReads {
				c.active = true
				c.recoverAt = n + c.spec.RecoverReads
				b.ShardBackend.FailShard(shard)
			}
			continue
		}
		if n >= c.recoverAt {
			c.active = false
			c.done = true
			if rerr := b.ShardBackend.RecoverShard(shard); rerr != nil && err == nil {
				err = fmt.Errorf("dht: injected crash recovery on shard %d: %w", shard, rerr)
			}
		}
	}
	return err
}

// beforeRead runs the read-side injection for keys on shard: it advances the
// crash schedule, consumes each key's first read occurrence, and returns
// whether to spike and which error (if any) to fail the call with.  Fatal
// outranks transient when a batch trips both.
func (b *faultBackend) beforeRead(shard int, keys ...uint64) (spike bool, err error) {
	b.mu.Lock()
	if rerr := b.noteRead(shard); rerr != nil {
		b.mu.Unlock()
		return false, rerr
	}
	var fatalKey, transientKey uint64
	var sawFatal, sawTransient bool
	for _, key := range keys {
		ok := occKey{write: false, shard: int32(shard), key: key}
		b.occ[ok]++
		if b.occ[ok] != 1 {
			continue
		}
		id := identity(false, shard, key)
		if !sawFatal && b.plan.PFatal > 0 && b.draw(faultSaltFatal, id) < b.plan.PFatal {
			sawFatal, fatalKey = true, key
		}
		if !sawTransient && b.plan.PTransient > 0 && b.draw(faultSaltTransient, id) < b.plan.PTransient {
			sawTransient, transientKey = true, key
		}
		if !spike && b.plan.PSpike > 0 && b.draw(faultSaltSpike, id) < b.plan.PSpike {
			spike = true
		}
	}
	b.mu.Unlock()
	if spike && b.plan.Spike > 0 {
		time.Sleep(b.plan.Spike)
	}
	switch {
	case sawFatal:
		return spike, fmt.Errorf("%w: shard %d key %d", errInjectedFatal, shard, fatalKey)
	case sawTransient:
		return spike, fmt.Errorf("%w: read shard %d key %d", errInjectedTransient, shard, transientKey)
	}
	return spike, nil
}

// beforeWrite consumes each key's first write occurrence and returns the
// transient error to fail the call with, if any.  Writes never draw fatal
// faults: the injector fails the op before the engine applies it, so a
// store-level retry re-applies it exactly once — but a write that escaped
// past retries could not be safely re-executed by the runtime.
func (b *faultBackend) beforeWrite(shard int, keys ...uint64) error {
	if b.plan.PTransient <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var faultKey uint64
	sawFault := false
	// Consume every key's occurrence even after a hit, so one retry clears
	// the whole batch regardless of how many keys drew a fault.
	for _, key := range keys {
		ok := occKey{write: true, shard: int32(shard), key: key}
		b.occ[ok]++
		if b.occ[ok] != 1 {
			continue
		}
		if !sawFault && b.draw(faultSaltTransient, identity(true, shard, key)) < b.plan.PTransient {
			sawFault, faultKey = true, key
		}
	}
	if sawFault {
		return fmt.Errorf("%w: write shard %d key %d", errInjectedTransient, shard, faultKey)
	}
	return nil
}

func (b *faultBackend) Get(shard int, key uint64) ([]byte, bool, bool, error) {
	if _, err := b.beforeRead(shard, key); err != nil {
		return nil, false, false, err
	}
	return b.ShardBackend.Get(shard, key)
}

func (b *faultBackend) BatchGet(shard int, keys []uint64) ([][]byte, []bool, int, error) {
	if _, err := b.beforeRead(shard, keys...); err != nil {
		return nil, nil, 0, err
	}
	return b.ShardBackend.BatchGet(shard, keys)
}

func (b *faultBackend) Put(shard int, key uint64, value []byte) error {
	if err := b.beforeWrite(shard, key); err != nil {
		return err
	}
	return b.ShardBackend.Put(shard, key, value)
}

func (b *faultBackend) BatchWrite(shard int, pairs []Pair) error {
	if b.plan.PTransient > 0 {
		keys := make([]uint64, len(pairs))
		for i, p := range pairs {
			keys[i] = p.Key
		}
		if err := b.beforeWrite(shard, keys...); err != nil {
			return err
		}
	}
	return b.ShardBackend.BatchWrite(shard, pairs)
}

// Freeze flushes the engine and then, for a disk engine under a TornTail
// plan, simulates a crash mid-write at the durability point: a seeded,
// partially-written record lands past the fsynced prefix of every shard log.
// Live reads never see it (they go through the extent index, and diskTable
// writes position at the tracked size, not the file end); a reopen replays
// the log and truncates it — the recovery property the torn-tail tests pin.
func (b *faultBackend) Freeze() error {
	if err := b.ShardBackend.Freeze(); err != nil {
		return err
	}
	if b.plan.TornTail {
		if db, ok := b.ShardBackend.(*diskBackend); ok {
			return injectTornTails(db, b.plan.Seed)
		}
	}
	return nil
}

// injectTornTails appends a torn record (complete header, truncated payload)
// to the primary and replica log of every shard.  Sizes and bytes are seeded.
func injectTornTails(db *diskBackend, seed int64) error {
	for i, sh := range db.shards {
		sh.mu.Lock()
		tables := []*diskTable{sh.prim}
		if sh.rep != nil {
			tables = append(tables, sh.rep)
		}
		for ti, t := range tables {
			id := rng.Hash64(seed^faultSaltTorn, uint64(i)<<8|uint64(ti))
			if err := appendTornRecord(t, id); err != nil {
				sh.mu.Unlock()
				return fmt.Errorf("dht: injecting torn tail on shard %d: %w", i, err)
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// appendTornRecord writes a record whose header claims more payload bytes
// than follow — exactly what a crash between the header write and the
// payload fsync leaves behind.  It does not advance t.size, so the table
// itself never acknowledges the bytes (a subsequent write would overwrite
// them, as the real log does after a crash).
func appendTornRecord(t *diskTable, id uint64) error {
	claimed := 1 + int(id%64) // payload length the header claims
	present := int(id % uint64(claimed))
	rec := make([]byte, diskHeader+present)
	rec[0] = diskOpPut
	binary.LittleEndian.PutUint64(rec[1:9], id)
	binary.LittleEndian.PutUint32(rec[9:13], uint32(claimed))
	for i := diskHeader; i < len(rec); i++ {
		rec[i] = byte(id >> (uint(i) % 8 * 8))
	}
	_, err := t.f.WriteAt(rec, t.size)
	return err
}
