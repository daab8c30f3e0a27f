package dht

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ampcgraph/internal/rng"
)

// Deterministic fault injection.
//
// A FaultPlan (installed via Options.Faults) makes the Store inject the
// failure modes a real deployment sees — transient per-op errors, stuck
// reads, whole-shard crashes with scheduled recovery, torn disk tails at the
// Freeze durability point, and dropped rpc connections — while keeping every
// run byte-identical to a fault-free one.  The per-op draws and the crash
// schedule run at the start of every façade shard visit, before the visit is
// routed to the primary or the replica (failover.go); torn tails land at
// Store.Freeze on every disk log, the replica's included; connection drops
// happen inside the rpc transport, of both servers of a replicated store.
//
// Determinism is the point: every decision is a pure hash of the plan seed
// and the op's identity (kind, shard, key) plus an occurrence counter, never
// of wall-clock time or goroutine scheduling.  A faulty identity fails its
// FIRST occurrence and succeeds afterwards, so whichever racing caller
// arrives first absorbs the fault, retries (or triggers a sub-round
// re-execution in the ampc runtime), and observes exactly the bytes a clean
// run observes.  Faults are injected BEFORE the engines apply the op, so a
// retried write applies exactly once.
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

// injects reports whether the plan injects anything at the Store façade
// (PDrop is handled inside the rpc transport).
func (p *FaultPlan) injects() bool {
	return p.PTransient > 0 || p.PFatal > 0 || len(p.Crashes) > 0 || p.TornTail
}

// Distinct hash streams per decision kind, salted into the plan seed so the
// same identity draws independent coins for each fault class.
const (
	faultSaltTransient = 0x7472616e7369656e // "transien"
	faultSaltFatal     = 0x666174616c       // "fatal"
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

// faultInjector runs a plan's per-visit decisions for one store: the
// occurrence counts, the per-shard read clocks, and the crash schedule, whose
// transitions set and clear the store's down flags.
type faultInjector struct {
	plan *FaultPlan
	down []atomic.Bool // the store's

	mu      sync.Mutex
	occ     map[occKey]uint32
	reads   []int64 // per-shard read visits
	crashes []crashState
}

// newFaultInjector runs plan against the shard down flags down.  The caller
// has checked plan.injects().
func newFaultInjector(plan *FaultPlan, down []atomic.Bool) *faultInjector {
	n := len(down)
	f := &faultInjector{
		plan:    plan,
		down:    down,
		occ:     make(map[occKey]uint32),
		reads:   make([]int64, n),
		crashes: make([]crashState, len(plan.Crashes)),
	}
	for i, c := range plan.Crashes {
		c.Shard = wrapShard(c.Shard, n)
		f.crashes[i] = crashState{spec: c}
	}
	return f
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
func (f *faultInjector) draw(salt int64, id uint64) float64 {
	return rng.UniformFloat(f.plan.Seed^salt, id)
}

// noteRead advances shard's read clock under f.mu and fires any crash
// transition due at this point: the shard goes down, or comes back up.
func (f *faultInjector) noteRead(shard int) {
	f.reads[shard]++
	n := f.reads[shard]
	for i := range f.crashes {
		c := &f.crashes[i]
		if c.spec.Shard != shard || c.done {
			continue
		}
		if !c.active {
			if n >= c.spec.AfterReads {
				c.active = true
				c.recoverAt = n + c.spec.RecoverReads
				f.down[shard].Store(true)
			}
			continue
		}
		if n >= c.recoverAt {
			c.active = false
			c.done = true
			f.down[shard].Store(false)
		}
	}
}

// beforeRead runs the read-side injection for keys on shard: it advances the
// crash schedule, consumes each key's first read occurrence, and returns the
// error (if any) to fail the visit with.  Fatal outranks transient when a
// batch trips both.
func (f *faultInjector) beforeRead(shard int, keys ...uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.noteRead(shard)
	var fatalKey, transientKey uint64
	var sawFatal, sawTransient bool
	for _, key := range keys {
		ok := occKey{write: false, shard: int32(shard), key: key}
		f.occ[ok]++
		if f.occ[ok] != 1 {
			continue
		}
		id := identity(false, shard, key)
		if !sawFatal && f.plan.PFatal > 0 && f.draw(faultSaltFatal, id) < f.plan.PFatal {
			sawFatal, fatalKey = true, key
		}
		if !sawTransient && f.plan.PTransient > 0 && f.draw(faultSaltTransient, id) < f.plan.PTransient {
			sawTransient, transientKey = true, key
		}
	}
	switch {
	case sawFatal:
		return fmt.Errorf("%w: shard %d key %d", errInjectedFatal, shard, fatalKey)
	case sawTransient:
		return fmt.Errorf("%w: read shard %d key %d", errInjectedTransient, shard, transientKey)
	}
	return nil
}

// beforeWrite consumes the first write occurrence of each pair's key and
// returns the transient error to fail the visit with, if any.  Writes never
// draw fatal faults: the injector fails the op before the engines apply it,
// so a store-level retry re-applies it exactly once — but a write that
// escaped past retries could not be safely re-executed by the runtime.
func (f *faultInjector) beforeWrite(shard int, pairs []Pair) error {
	if f.plan.PTransient <= 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var faultKey uint64
	sawFault := false
	// Consume every key's occurrence even after a hit, so one retry clears
	// the whole batch regardless of how many keys drew a fault.
	for _, p := range pairs {
		ok := occKey{write: true, shard: int32(shard), key: p.Key}
		f.occ[ok]++
		if f.occ[ok] != 1 {
			continue
		}
		if !sawFault && f.draw(faultSaltTransient, identity(true, shard, p.Key)) < f.plan.PTransient {
			sawFault, faultKey = true, p.Key
		}
	}
	if sawFault {
		return fmt.Errorf("%w: write shard %d key %d", errInjectedTransient, shard, faultKey)
	}
	return nil
}

// injectTornTails simulates a crash mid-write at the durability point: a
// seeded, partially-written record (complete header, truncated payload)
// lands past the fsynced prefix of every shard log of db, the primary's
// (engine 0) or the replica's (engine 1).  Live reads never see it (they go
// through the extent index, and diskTable writes position at the tracked
// size, not the file end); a reopen replays the log and truncates it — the
// recovery property the torn-tail tests pin.  A closed engine has released
// its logs, so there is nothing to tear: that is errDiskClosed.
func injectTornTails(db *diskBackend, seed int64, engine int) error {
	for i, sh := range db.shards {
		sh.mu.Lock()
		err := errDiskClosed
		if sh.table != nil {
			err = appendTornRecord(sh.table, rng.Hash64(seed^faultSaltTorn, uint64(i)<<8|uint64(engine)))
		}
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("dht: injecting torn tail on shard %d: %w", i, err)
		}
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
