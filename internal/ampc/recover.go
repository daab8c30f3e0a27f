package ampc

import (
	"ampcgraph/internal/dht"
)

// Sub-round recovery.
//
// A machine's share of a round — a sub-round — can fail past the stores' own
// retry tier: an injected fatal fault (dht.FaultPlan.PFatal), an op that
// outlived its retry attempts, a real backend error.  With
// Config.FaultBudget > 0 the executor recovers at exactly that granularity
// instead of failing the run: the failed (round, machine) share is
// re-executed from scratch while every other machine's work stands.
//
// Re-execution is only sound if the failed attempt left no trace.  Reads are
// naturally replayable (the input store is frozen for the round), but writes
// are not: an attempt that failed half way has written some of its keys, and
// a later round — or the run's caller, should the retry fail too — must
// never see a key only a failed attempt wrote.  So under a fault budget
// every Ctx write (Write, WriteMany) is buffered in the Ctx instead of
// applied: the executor flushes the buffer to the stores only after the
// sub-round has completed without error, and discards it before a retry.
// Every flush happens before the round ends, so later rounds observe exactly
// the writes a fault-free execution produces.  Values are copied at buffer time,
// preserving the store façade's "values are copied on write" contract for
// callers that reuse buffers.
//
// The contract this leaves with round bodies: key-value effects are recovered
// automatically, host-side effects are not.  A body that mutates per-item
// host state (results[item] = x) is naturally idempotent under re-execution;
// a body that accumulates into shared host state (append, counters) must
// tolerate its machine's items running twice, or the algorithm must not be
// run with a fault budget.  The five core algorithms write all cross-round
// state through the hash tables.

// bufferedWrite is one deferred Ctx write: a single put or a whole
// shard-grouped batch.
type bufferedWrite struct {
	out    *dht.Store
	pairs  []dht.Pair // values copied at buffer time
	single bool
}

// bufferWrite defers a single-key write.  The caller has counted the write;
// only the store application waits.
func (c *Ctx) bufferWrite(out *dht.Store, key uint64, value []byte) error {
	w := bufferedWrite{
		out:    out,
		pairs:  []dht.Pair{{Key: key, Value: append([]byte(nil), value...)}},
		single: true,
	}
	c.bufMu.Lock()
	c.buf = append(c.buf, w)
	c.bufMu.Unlock()
	return nil
}

// bufferBatch defers a shard-grouped batch write.  Counting the batch needs
// the store's visit split, so it happens at flush time.  The values are
// copied into one arena, each a capacity-clipped slice of it.
func (c *Ctx) bufferBatch(out *dht.Store, pairs []dht.Pair) error {
	n := 0
	for _, p := range pairs {
		n += len(p.Value)
	}
	arena := make([]byte, 0, n)
	cp := make([]dht.Pair, len(pairs))
	for i, p := range pairs {
		lo := len(arena)
		arena = append(arena, p.Value...)
		cp[i] = dht.Pair{Key: p.Key, Value: arena[lo:len(arena):len(arena)]}
	}
	c.bufMu.Lock()
	c.buf = append(c.buf, bufferedWrite{out: out, pairs: cp})
	c.bufMu.Unlock()
	return nil
}

// flushWrites applies the sub-round's buffered writes to the stores, in
// buffer order.  The executor calls it exactly once per successful
// sub-round, before marking the sub-round complete (and before reading the
// Ctx's counts for the modeled duration).  A flush error is not recoverable
// by re-execution — part of the buffer may already be applied — so callers
// surface it instead of consuming fault budget.
func (c *Ctx) flushWrites() error {
	c.bufMu.Lock()
	buf := c.buf
	c.buf = nil
	c.bufMu.Unlock()
	for _, w := range buf {
		view := w.out.View(c.Machine)
		if w.single {
			if err := view.Put(w.pairs[0].Key, w.pairs[0].Value); err != nil {
				return err
			}
			continue
		}
		visits, err := view.BatchPut(w.pairs)
		if err != nil {
			return err
		}
		c.countBatch(true, len(w.pairs), visits)
	}
	return nil
}

// discardWrites drops the sub-round's buffered writes before a retry.
func (c *Ctx) discardWrites() {
	c.bufMu.Lock()
	c.buf = nil
	c.bufMu.Unlock()
}

// consumeFaultBudget reserves one sub-round re-execution.  It reports false
// once Config.FaultBudget re-executions have been spent — the executor then
// surfaces the failure as the run's error.  The budget is per job, so one
// fault-heavy query cannot starve the recovery of its session neighbors.
func (j *Job) consumeFaultBudget() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.faultBudgetUsed >= j.cfg.FaultBudget {
		return false
	}
	j.faultBudgetUsed++
	j.stats.SubroundRetries++
	return true
}
