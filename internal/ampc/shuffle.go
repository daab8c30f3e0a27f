package ampc

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// shuffleChunk is the number of consecutive items one pool thread claims at
// a time in a shuffle stage: a few hundred vertices amortize the claim and
// interleave hubs and leaves across the machines.
const shuffleChunk = 512

// PoolSize returns the number of worker slots of the session's pool,
// Machines x Threads: the range of the worker argument of a Shuffle body.
func (s *Session) PoolSize() int { return s.cfg.Machines * s.cfg.Threads }

// Shuffle runs one host-side shuffle stage — a per-item map whose output the
// next KV-write round stores, such as sorting every vertex's adjacency list —
// on the session's worker pool, and accounts for it as the algorithms'
// hand-written shuffle phases always were: one Phase called name and one
// RecordShuffle of the bytes the bodies report.  It is not a round:
// Stats.Rounds does not move, no RoundOverhead is charged and nothing but
// RecordShuffle touches the modeled clock, which has always priced the step
// as a parallel shuffle of the dataflow framework.
//
// [0, items) is cut into contiguous chunks; chunk c belongs to machine
// c mod Machines, whose threads claim its chunks in order.  The cut ignores
// Config.Placement: body is a pure function of its range, so no partition
// of the work can change an output.  body(worker, lo, hi) processes items
// [lo, hi) and returns the shuffle bytes they account for.  worker, in
// [0, PoolSize()), names the slot of the calling thread: no two calls with
// the same worker overlap, so scratch indexed by it needs no lock.  A body
// writes only its own chunk's output slots (and its worker's scratch), which
// makes a chunk re-executable and the stage's output independent of the
// schedule: running it twice yields the same result.
//
// Like a round, the stage holds the job's run lock and the session's
// lifecycle and execution read locks, fails with ErrClosed on a closed job or
// session, and honours job cancellation between chunks: the threads stop
// claiming, the pool drains, and the context error is returned.  Every chunk
// runs even after one has failed, and the error reported is the lowest
// failing chunk's.
func (j *Job) Shuffle(name string, items int, body func(worker, lo, hi int) (int64, error)) error {
	return j.Phase(name, func() error {
		bytes, err := j.runShuffle(name, items, body)
		if err != nil {
			return err
		}
		j.RecordShuffle(name, bytes)
		return nil
	})
}

func (j *Job) runShuffle(name string, items int, body func(worker, lo, hi int) (int64, error)) (int64, error) {
	j.runMu.Lock()
	defer j.runMu.Unlock()
	s := j.Session
	s.lifecycle.RLock()
	defer s.lifecycle.RUnlock()
	if s.closed.Load() || j.closed.Load() {
		return 0, fmt.Errorf("ampc: shuffle %q: %w", name, ErrClosed)
	}
	if err := j.ctx.Err(); err != nil {
		return 0, fmt.Errorf("ampc: shuffle %q: job cancelled: %w", name, err)
	}
	machines, threads := j.cfg.Machines, j.cfg.Threads
	chunks := NumBlocks(items, shuffleChunk)
	var (
		bytes    atomic.Int64
		errMu    sync.Mutex
		firstErr error
		errChunk = chunks
		drained  sync.WaitGroup
	)
	for m := 0; m < machines && m < chunks; m++ {
		// Machine m's pool job has one item per thread — the worker slot —
		// and each slot loops over the machine's chunks m, m+P, m+2P, ...
		// through one shared cursor, as a round's threads share its items.
		var cursor atomic.Int64
		drained.Add(1)
		s.workers().submit(m, &machineJob{
			count:  threads,
			itemAt: func(k int) int { return m*threads + k },
			body: func(_ *Ctx, worker int) error {
				for j.ctx.Err() == nil {
					c := m + int(cursor.Add(1)-1)*machines
					if c >= chunks {
						break
					}
					lo, hi := BlockBounds(c, shuffleChunk, items)
					n, err := body(worker, lo, hi)
					bytes.Add(n)
					if err != nil {
						errMu.Lock()
						if c < errChunk {
							errChunk, firstErr = c, fmt.Errorf("ampc: shuffle %q items [%d, %d): %w", name, lo, hi, err)
						}
						errMu.Unlock()
					}
				}
				return nil
			},
			done: func(*machineJob) { drained.Done() },
		})
	}
	drained.Wait()
	if firstErr == nil {
		if err := j.ctx.Err(); err != nil {
			firstErr = fmt.Errorf("ampc: shuffle %q: job cancelled: %w", name, err)
		}
	}
	return bytes.Load(), firstErr
}
