package ampc

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Persistent machine/worker pool with per-machine job queues.
//
// A production system keeps its machine processes alive for the lifetime of
// the computation, so the session owns a persistent pool: Machines x Threads
// worker goroutines are started once, on the first segment, and every
// sub-round of every job is handed to them as a machineJob.  Each machine
// owns an ordered feed of jobs, its threads drain the feed in order — which
// keeps a machine's rounds in program order while different machines run
// different rounds — and the last thread to leave a job fires the job's
// completion callback.  Items are pulled from a shared atomic cursor per
// job, so a machine's threads self-balance within its partition.  Close
// releases the pool; a session that never runs a round never spawns it.

// machineJob is one machine's share of one round — a sub-round.  It captures
// its own first item error, so the segment executor can decide per sub-round
// whether to surface the failure or re-execute the share (sub-round recovery
// under Config.FaultBudget).
type machineJob struct {
	name    string
	machine int
	ctx     *Ctx
	body    func(*Ctx, int) error
	count   int           // number of items assigned to this machine
	itemAt  func(int) int // k-th assigned item
	next    atomic.Int64  // shared pull cursor over [0, count)
	// threadsLeft counts the worker threads that have not yet drained the
	// job; the thread that decrements it to zero fires done.  At that point
	// every item has been fully processed: an item is only claimed by a
	// thread that finishes it before leaving the job.
	threadsLeft atomic.Int32
	done        func(*machineJob)
	// abortOnErr makes the job's threads stop claiming items once one item
	// has failed.  Set when the executor will retry the whole sub-round
	// (Config.FaultBudget > 0): the remaining items would be re-executed
	// anyway, so finishing them only delays recovery.  Items already claimed
	// still run to completion — their writes are buffered and discarded.
	abortOnErr bool

	errMu    sync.Mutex
	firstErr error
	failed   atomic.Bool
}

// recordErr notes one item failure; the first error is kept.
func (j *machineJob) recordErr(err error) {
	j.errMu.Lock()
	if j.firstErr == nil {
		j.firstErr = err
	}
	j.errMu.Unlock()
	j.failed.Store(true)
}

// takeErr returns the job's first item error, nil when it succeeded.
func (j *machineJob) takeErr() error {
	j.errMu.Lock()
	defer j.errMu.Unlock()
	return j.firstErr
}

// reset rearms a failed job for re-execution: the cursor rewinds and the
// error state clears.  threadsLeft is rearmed by submit.
func (j *machineJob) reset() {
	j.next.Store(0)
	j.failed.Store(false)
	j.errMu.Lock()
	j.firstErr = nil
	j.errMu.Unlock()
}

// jobNode is one link of a machine's job feed.  Worker threads each keep
// their own cursor into the list, so a node is garbage collected as soon as
// every thread has moved past it — the feed is unbounded without growing.
type jobNode struct {
	job  *machineJob
	next *jobNode
}

// machineFeed is the ordered job queue of one machine.
type machineFeed struct {
	mu     sync.Mutex
	cond   *sync.Cond
	tail   *jobNode // most recently appended node (sentinel when empty)
	closed bool
}

// workerPool is the persistent set of machine worker goroutines.
type workerPool struct {
	threads int
	feeds   []*machineFeed
}

func newWorkerPool(machines, threads int) *workerPool {
	p := &workerPool{threads: threads, feeds: make([]*machineFeed, machines)}
	for m := range p.feeds {
		f := &machineFeed{tail: &jobNode{}}
		f.cond = sync.NewCond(&f.mu)
		p.feeds[m] = f
		for t := 0; t < threads; t++ {
			go poolWorker(f, f.tail)
		}
	}
	return p
}

// poolWorker is the loop of one persistent worker thread: follow the
// machine's feed in order, drain the items of each job, then wait for the
// next.  cur is the thread's private cursor into the feed.
func poolWorker(f *machineFeed, cur *jobNode) {
	for {
		f.mu.Lock()
		for cur.next == nil && !f.closed {
			f.cond.Wait()
		}
		if cur.next == nil {
			f.mu.Unlock()
			return
		}
		cur = cur.next
		f.mu.Unlock()

		job := cur.job
		for {
			if job.abortOnErr && job.failed.Load() {
				break
			}
			k := int(job.next.Add(1) - 1)
			if k >= job.count {
				break
			}
			item := job.itemAt(k)
			if err := job.body(job.ctx, item); err != nil {
				job.recordErr(fmt.Errorf("ampc: round %q item %d: %w", job.name, item, err))
			}
		}
		if job.threadsLeft.Add(-1) == 0 && job.done != nil {
			job.done(job)
		}
	}
}

// submit appends a job to machine m's feed.  The machine's threads process
// feed entries strictly in submission order, which is what preserves
// per-machine program order under pipelining.
func (p *workerPool) submit(m int, job *machineJob) {
	job.threadsLeft.Store(int32(p.threads))
	f := p.feeds[m]
	n := &jobNode{job: job}
	f.mu.Lock()
	f.tail.next = n
	f.tail = n
	f.mu.Unlock()
	f.cond.Broadcast()
}

// close wakes the worker goroutines and lets them exit once their feeds are
// drained.
func (p *workerPool) close() {
	for _, f := range p.feeds {
		f.mu.Lock()
		f.closed = true
		f.mu.Unlock()
		f.cond.Broadcast()
	}
}
