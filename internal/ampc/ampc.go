// Package ampc implements the Adaptive Massively Parallel Computation (AMPC)
// runtime of Section 2 of the paper.
//
// An AMPC computation runs on P machines, each with S = Θ(n^ε) local space.
// Computation proceeds in rounds; in round i every machine may issue up to
// O(S) reads against the distributed hash table written in round i-1 and up
// to O(S) writes into the hash table of round i.  This package provides:
//
//   - Config: machines, ε / space budget, per-machine threads, caching, and
//     the key-value latency model (RDMA / TCP / DRAM, for Table 4);
//   - Session: the long-lived shared substrate — the persistent worker pool,
//     the hash tables (D0, D1, ...), the ownership table and the per-machine
//     caches — that many concurrent queries share;
//   - Job: one execution against a Session, with its own simulated clock,
//     statistics, fault budget, cancellation context and round tables.  It
//     embeds its Session, so it is the one handle algorithm code holds: New
//     gives a one-shot job on a private session, Session.NewJob a job sharing
//     a long-lived one;
//   - Ctx: the per-machine handle through which algorithm code reads and
//     writes the hash tables.  It counts its machine's work into a
//     simtime.Work vector; Config.Model's Price turns counts into modeled
//     time, and nothing in this package reads a cost field.
//
// Shuffles are the expensive dataflow steps of the host framework (Table 3
// counts them); algorithms report them explicitly with RecordShuffle so that
// the AMPC-versus-MPC comparison of the paper can be reproduced exactly.
//
// # Shuffle stages
//
// Every algorithm of Section 5 opens with one shuffle whose output the first
// KV-write round stores: a per-vertex map (keep and order the neighbours),
// which the paper's dataflow system runs on all of its workers.  Job.Shuffle
// is that step here.  What it is: the body, called on contiguous chunks of
// the item range by the session's pool threads (chunk c on machine
// c mod Machines, whatever Config.Placement says — a partition of a pure
// function cannot change an output), under the locks a round holds, with a
// round's cancellation and ErrClosed behaviour; accounted as one Phase of
// the stage's name holding one RecordShuffle of the bytes the bodies report.
// What it is not: a round.  It reads and writes no store, has no Ctx, counts
// nothing into Stats.Rounds, pays no RoundOverhead, and puts nothing on the
// modeled clock beyond RecordShuffle's charge — the model has always priced
// the step as a parallel shuffle, and the stage only makes the wall clock
// agree.  A pool of 1 x 1 is the sequential case; there is no other path.
//
// # Sessions and jobs
//
// The one-shot shape — New, run one query, Close — is wasteful for serving:
// every query would respawn the pool and re-shuffle the graph into fresh
// stores.  Session and Job split those lifetimes.  A Session outlives
// queries: its pool threads, resident stores (OpenStore; OpenSharedStore is
// get-or-create by name), ownership table and caches persist until
// Session.Close, which closes each store once.  A Job is
// one query: per-job clock, Stats, fault budget, context cancellation and the
// stores it opened itself (Job.OpenStore, closed by Job.Close), admitted
// under Config.MaxJobs (FIFO beyond the limit).  Concurrent jobs interleave
// their machine shares in the per-machine pool feeds instead of serializing
// behind a global run lock; results stay byte-identical to running each job
// alone because rounds read frozen stores and jobs write disjoint stores or
// disjoint spans.
//
// # Batching
//
// Section 5.3 attributes the practical AMPC wins to amortizing the
// per-request overhead of the key-value store.  Config.Batch switches the
// algorithms' fan-out reads to Ctx.Stream and their bulk writes to
// Ctx.WriteMany: a whole block of work items advances in lock-step and its
// key-value requests travel as one shard-grouped batch, which takes each
// shard lock once per batch (instead of once per key) and is priced at one
// BatchShardLatency per shard plus a BatchPerKey marginal.  Batching changes
// no result — the input store is frozen for the round, so a batched read
// returns exactly what the corresponding single-key reads would — and Stats
// reports the grouping achieved (BatchesIssued, BatchedKeys,
// ShardVisitsSaved, KVShardVisits).
//
// How blocks are formed: a round over the dense key range cuts it into a
// fixed grid of BatchSize keys and gives each block to the owner of its
// first key (BlockOwnerPartitioner; at most one block per ownership boundary
// straddles it).  A round over an indirect item list — the cycle walk's
// samples — cuts the list at every ownership change as well
// (OwnerCutBlocks), because there a grid block can be the whole round and
// one machine would run all of it.  What a fetch cycle costs: Ctx.Stream
// allocates its live window, key list, dedupe set and result slices once per
// call and reuses them every cycle; the cache is probed once per batch
// without a lock and filled under one mutex acquisition (dht.Cache.PeekMany
// / FillMany); the store groups the batch by shard with a counting sort into
// one buffer.  A cycle therefore allocates the store's reply — a handful of
// slices per batch plus two per shard visited — and nothing per key.
//
// # Placement and the persistent pool
//
// Beyond grouping requests, the runtime can also move the data next to the
// machine that needs it.  Config.Placement selects the shard placement
// policy of the hash tables: PlacementHash reproduces the paper's uniform
// model (every lookup is a remote round trip), PlacementOwnerAffine
// co-locates each key's shard with the machine owning the key under a
// contiguous range partition of the keyspace (dht.OwnerAffine), and
// PlacementWeighted co-locates under the degree-weighted partition declared
// through SetOwnership (dht.Ownership), which keeps per-machine load even
// when a few hub keys carry most of the work.  Rounds partitioned by the
// same ownership function (Round.Partitioner, OwnerPartitioner,
// BlockOwnerPartitioner) then serve their own keys from co-located shards
// at local DRAM latency instead of paying the transport; Stats reports the
// split as LocalReads / RemoteReads / RemoteFrac.  Placement never changes
// results — only where keys live and what each access costs.
//
// Rounds execute on a persistent machine/worker pool (Machines x Threads
// goroutines spawned on first use and reused by every round of every job),
// and with EnableCache the per-machine caches survive across rounds that
// read the same frozen hash table.  Call Session.Close (or Close on the
// one-shot job of New) to release the pool.
//
// # Rounds: the one execution shape
//
// One round is one barrier segment, executed by one function (runSegment in
// segment.go): it freezes the round's Read store, hands each machine its
// share of the items, flushes each share's writes when it completes (under
// Config.FaultBudget it discards a failed share's writes and re-executes the
// share), and charges the job's clock the slowest machine's busy time plus
// one round overhead — the model's global barrier.  Stats.BarrierIdle sums,
// over every round, the time the faster machines wait for the slowest.  Run
// executes one round; RunStaged is a Phase and a Run per stage.
//
// Round i reads D_{i-1} read-only, and the runtime enforces it: the Read
// store is frozen before any share runs, a frozen store rejects writes, and
// a per-machine cache fronts only a frozen store (Session.cacheFor refuses
// any other).  So no cached entry can go stale, and rounds declare nothing
// beyond their Read store.
package ampc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ampcgraph/internal/dht"
	"ampcgraph/internal/simtime"
)

// Config configures an AMPC session.  The zero value is usable: it defaults
// to 4 machines, 1 thread per machine, ε = 0.5, caching disabled and the
// RDMA latency model.
type Config struct {
	// Machines is the number of machines P.
	Machines int
	// Epsilon is the space exponent ε in S = n^ε.
	Epsilon float64
	// SpacePerMachine overrides the n^ε space budget when positive.
	SpacePerMachine int
	// Threads is the number of worker threads per machine (the
	// multithreading optimization of §5.3).
	Threads int
	// EnableCache turns on per-machine caching of key-value lookups and of
	// algorithm-level query results (the caching optimization of §5.3).
	EnableCache bool
	// Batch makes algorithms issue their fan-out reads and bulk writes
	// through the shard-grouped batch API (Ctx.Stream / Ctx.WriteMany)
	// instead of one key-value round trip per key.  Results are identical;
	// only the grouping of requests — and therefore shard lock
	// acquisitions and modeled latency — changes.
	Batch bool
	// BatchSize bounds the number of work items evaluated in lock-step per
	// batch block (and therefore the number of keys per flush).  Defaults
	// to 512.
	BatchSize int
	// Placement selects the shard placement policy of the session's hash
	// tables.  PlacementHash (the default) hashes keys uniformly onto
	// shards and models every access as a remote round trip, as the paper
	// does.  PlacementOwnerAffine co-locates each key's shard with the
	// machine owning the key (contiguous range partition, see
	// dht.OwnerAffine), so that rounds partitioned by the same ownership
	// function serve reads and writes of their own keys at local (DRAM)
	// latency.  PlacementWeighted does the same under the degree-weighted
	// contiguous partition declared through SetOwnership (dht.Ownership),
	// which keeps per-machine load even on hub-heavy keyspaces.  Results
	// are identical under every policy; only where keys live — and
	// therefore the local/remote statistics and modeled time — changes.
	Placement string
	// Pipeline is deprecated and ignored: every round is its own barrier
	// segment.  The field stays only because the frozen wall-clock
	// benchmark (benchmark/) sets it; see compat.go.  (It carries no
	// "Deprecated:" marker, which would make staticcheck fail on the
	// benchmark's uses.)
	Pipeline bool
	// MaxJobs bounds the number of jobs concurrently admitted to a Session
	// through NewJob: beyond the limit, NewJob blocks and admits waiters in
	// FIFO order as running jobs Close (or their contexts cancel).  Zero
	// means unlimited.  One-shot runtimes created with New are exempt —
	// they own their private session.
	MaxJobs int
	// Model turns the counted work into modeled time (CostModel.Price); it
	// changes no count and no result.
	Model simtime.CostModel
	// Shards is the number of key-value store shards.
	Shards int
	// Replicate enables synchronous replication inside the hash tables so
	// that injected shard failures do not lose data (fault tolerance, §2).
	Replicate bool
	// Backend selects the shard storage engine of the hash tables:
	// BackendMem (the default) keeps shards in in-memory maps, BackendDisk
	// spills them to log-structured files so stores larger than RAM
	// complete, and BackendRPC serves them over a loopback socket
	// transport that measures real wire costs (Job.MeasuredCostModel).
	// Results are identical under every backend; only where the bytes live
	// and what each operation really costs changes.
	Backend string
	// DiskDir is the parent directory for the disk backend's per-store log
	// directories; empty uses the system temporary directory.  The session
	// creates a private subdirectory per run and removes it on Close.
	DiskDir string
	// Faults installs a deterministic seeded fault-injection plan
	// (dht.FaultPlan) in every hash table the session creates: transient
	// errors, stuck reads, scheduled shard crashes, torn disk tails,
	// dropped rpc connections.  Injection is a pure function of the plan
	// seed and each op's identity, so a faulty run paired with Retry and
	// FaultBudget produces byte-identical results to a fault-free one.
	Faults *dht.FaultPlan
	// Retry installs a store-level retry policy (dht.RetryPolicy) in every
	// hash table: an op that fails with a transient backend error is tried
	// again at once, up to MaxAttempts tries in all.  This is the first
	// recovery tier, and the only one a buffered sub-round flush has (a
	// flush cannot be re-executed); failures that escape it fall through to
	// sub-round recovery (FaultBudget).
	Retry *dht.RetryPolicy
	// FaultBudget enables sub-round recovery: a (round, machine) share that
	// fails — a fatal injected fault, a read that outlived its retry
	// attempts, a real backend error — is re-executed from scratch instead
	// of failing the run, up to FaultBudget re-executions per job
	// (Stats.SubroundRetries counts them).  While the budget is active every Ctx write is buffered per
	// sub-round and applied only on success (discarded before a retry), so
	// re-execution cannot double-apply appends; round bodies must keep
	// their host-side effects idempotent under re-execution (per-item
	// assignment is, shared accumulation is not).  Zero disables recovery
	// and buffering: the first sub-round failure fails the run, exactly the
	// pre-budget behavior.
	FaultBudget int
	// Seed drives all hash-based randomness.
	Seed int64
}

// Placement policies understood by Config.Placement.
const (
	// PlacementHash hashes keys uniformly onto shards with no machine
	// affinity (the paper's uniform remote model).
	PlacementHash = "hash"
	// PlacementOwnerAffine co-locates each key's shard with the machine
	// that owns the key under a contiguous range partition of the keyspace.
	PlacementOwnerAffine = "owner"
	// PlacementWeighted co-locates each key's shard with the machine that
	// owns the key under the degree-weighted contiguous partition declared
	// through SetOwnership: machine boundaries follow the prefix sums of
	// the per-key weights, so hub-heavy keyspaces spread their work evenly
	// instead of overloading the machine whose range holds the hubs.
	// Without declared weights it behaves like PlacementOwnerAffine.
	PlacementWeighted = "weighted"
)

// Storage backends understood by Config.Backend (mirroring dht.BackendKind).
const (
	// BackendMem keeps every shard in an in-memory map (the default).
	BackendMem = string(dht.BackendMem)
	// BackendDisk keeps every shard in a log-structured file, spilling
	// stores past RAM.
	BackendDisk = string(dht.BackendDisk)
	// BackendRPC serves every shard over a loopback socket transport,
	// measuring real wire costs.
	BackendRPC = string(dht.BackendRPC)
)

// WithDefaults returns a copy of c with unset fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 4
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		c.Epsilon = 0.5
	}
	if c.Model.Name == "" {
		c.Model = simtime.RDMA()
	}
	if c.Shards <= 0 {
		c.Shards = 4 * c.Machines
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	if c.Placement == "" {
		c.Placement = PlacementHash
	}
	if c.Backend == "" {
		c.Backend = BackendMem
	}
	return c
}

// SpaceBudget returns the per-machine space/query budget S for an input of
// size n: SpacePerMachine when set, otherwise ⌈n^ε⌉ (at least 16 so that tiny
// test graphs still make progress).
func (c Config) SpaceBudget(n int) int {
	if c.SpacePerMachine > 0 {
		return c.SpacePerMachine
	}
	if n <= 0 {
		return 16
	}
	s := int(math.Ceil(math.Pow(float64(n), c.Epsilon)))
	if s < 16 {
		s = 16
	}
	return s
}

// PhaseStat records the cost of one named phase of an algorithm (the
// breakdowns plotted in Figures 5, 6 and 7).
type PhaseStat struct {
	Name         string
	Wall         time.Duration
	Sim          time.Duration
	Shuffles     int
	ShuffleBytes int64
	KVBytes      int64
}

// Stats aggregates everything the paper measures about an AMPC execution.
// Round, shuffle, phase and recovery counters are per job; the
// store-derived counters (KVReads, cache hits, backend stats, ...) aggregate
// the session's stores, which concurrent jobs share.
type Stats struct {
	Rounds         int
	Shuffles       int
	ShuffleBytes   int64
	KVReads        int64
	KVWrites       int64
	KVBytesRead    int64
	KVBytesWritten int64
	KVBytesTotal   int64
	// CacheHits and CacheMisses count the lookups the per-machine caches
	// served and those that read through to a store.  They are exact only
	// at Threads = 1: a machine's threads race to fill the same key, and
	// each thread that misses before the first fill lands counts a miss.
	CacheHits         int64
	CacheMisses       int64
	MaxMachineQueries int64
	// KVShardVisits is the total number of shard lock acquisitions across
	// all hash tables (the contention measure the batching optimization
	// reduces).
	KVShardVisits int64
	// BatchesIssued counts shard-grouped batches flushed to the stores
	// by Stream, ReadMany and WriteMany calls.
	BatchesIssued int64
	// BatchedKeys counts the keys carried by those batches; BatchedKeys /
	// BatchesIssued is the mean keys-per-batch.
	BatchedKeys int64
	// ShardVisitsSaved is the number of shard visits avoided by grouping:
	// the sum over batches of (keys sent to the store - shards visited).
	ShardVisitsSaved int64
	// LocalReads counts key-value reads served by a shard co-located with
	// the reading machine (only possible under an owner-affine placement).
	LocalReads int64
	// RemoteReads counts key-value reads that crossed the network.
	RemoteReads int64
	// RemoteFrac is RemoteReads / (LocalReads + RemoteReads); 0 when no
	// reads were issued.
	RemoteFrac float64
	// KVRemoteBytes counts the key-value bytes (read + written) that
	// crossed the network; under PlacementHash it equals KVBytesTotal.
	KVRemoteBytes int64
	// BarrierIdle is the straggler idle paid at the round barriers: summed
	// over every round this job ran, the slowest machine's busy time minus
	// each machine's, summed over machines.
	BarrierIdle time.Duration
	// MachineQueries is the cumulative per-machine lookup count across every
	// round this job ran (MaxMachineQueries is the per-round maximum; this
	// is the whole-job distribution).  Its max/mean is the observed query
	// imbalance; diffing snapshots isolates a stretch of rounds.
	MachineQueries []int64
	// MachineBusy is the cumulative modeled busy time per machine across
	// every round this job ran: compute plus thread-divided lookup latency,
	// the same per-(round, machine) durations whose per-round maximum Sim
	// charges.  Because it is per job, the
	// vectors of concurrent jobs add machine-wise: the serving experiment
	// derives the shared-pool makespan from them
	// (simtime.ConcurrentMakespan).
	MachineBusy []time.Duration
	// KVFailovers counts key-value reads served by the replica of a failed
	// shard, summed across all hash tables (fault tolerance, §2).
	KVFailovers int64
	// KVRetries sums the stores' extra attempts under Config.Retry: the
	// transient faults a retry absorbed.
	KVRetries int64
	// SubroundRetries counts failed (round, machine) sub-rounds that were
	// re-executed under Config.FaultBudget.
	SubroundRetries int
	// Backend aggregates the backend-specific counters of every hash table:
	// disk footprint for the disk backend, measured wire costs for the rpc
	// backend (Kind is the backend of the session's stores).
	Backend dht.BackendStats
	Wall    time.Duration
	Sim     time.Duration
	Phases  []PhaseStat
}

// Ctx is the handle through which a machine accesses the hash tables during a
// round.  A Ctx is shared by all threads of one machine and is safe for
// concurrent use.
type Ctx struct {
	// Machine is the machine index in [0, Machines).
	Machine int
	job     *Job
	// read is the round's input store; reads go through its view bound to
	// this machine (read.View(Machine)), so they are classified — and
	// charged — against the machine.
	read  *dht.Store
	cache *dht.Cache
	// buffered defers every write into buf until the executor flushes the
	// machine's share (Config.FaultBudget > 0) — see recover.go.
	buffered bool
	bufMu    sync.Mutex
	buf      []bufferedWrite

	queries atomic.Int64
	// work counts what the machine did this round, indexed by
	// simtime.Count; the model prices it at the end (busy).
	work [simtime.NumCounts]atomic.Int64
}

// count adds n to the machine's count k.
func (c *Ctx) count(k simtime.Count, n int) { c.work[k].Add(int64(n)) }

// counts returns the work the machine has counted so far.
func (c *Ctx) counts() (w simtime.Work) {
	for k := range w {
		w[k] = c.work[k].Load()
	}
	return w
}

// busy returns the modeled busy time of the machine in the round: its
// counted work priced on Config.Threads threads.
func (c *Ctx) busy() time.Duration {
	return c.job.cfg.Model.Price(c.counts(), c.job.cfg.Threads)
}

// sided returns the local count when local is set, the remote one otherwise.
func sided(local bool, localCount, remoteCount simtime.Count) simtime.Count {
	if local {
		return localCount
	}
	return remoteCount
}

// Lookup reads key from the round's input hash table.  With caching enabled
// the per-machine cache is probed first; a hit costs DRAM latency instead
// of a network round trip, and a miss reads the store and fills the cache
// without probing it again.
func (c *Ctx) Lookup(key uint64) ([]byte, bool, error) {
	if c.read == nil {
		return nil, false, fmt.Errorf("ampc: round has no input store")
	}
	c.queries.Add(1)
	if c.cache != nil {
		if v, ok, cached := c.cache.Peek(key); cached {
			c.count(simtime.CacheHits, 1)
			return v, ok, nil
		}
	}
	view := c.read.View(c.Machine)
	v, ok, err := view.Get(key)
	if err != nil {
		return nil, false, err
	}
	c.count(sided(view.Local(key), simtime.LocalReads, simtime.RemoteReads), 1)
	if c.cache != nil {
		c.cache.Fill(key, v, ok)
	}
	return v, ok, nil
}

// Write stores a key-value pair into the given output hash table.  Under a
// fault budget the write is buffered and applied when the machine's share
// completes without error (see recover.go).
func (c *Ctx) Write(out *dht.Store, key uint64, value []byte) error {
	view := out.View(c.Machine)
	c.count(sided(view.Local(key), simtime.LocalWrites, simtime.RemoteWrites), 1)
	if c.buffered {
		return c.bufferWrite(out, key, value)
	}
	return view.Put(key, value)
}

// ChargeCompute records that the machine performed n units of local
// computation (vertex visits, edge scans, ...).
func (c *Ctx) ChargeCompute(n int) {
	if n > 0 {
		c.count(simtime.Compute, n)
	}
}

// Round describes one AMPC round: Items work items are distributed over the
// machines, every machine runs Body for each of its items, reading from Read
// (the hash table written in the previous round).
type Round struct {
	// Name identifies the round in statistics and error messages.
	Name string
	// Items is the number of work items (usually vertices).
	Items int
	// Read is the input hash table; it is frozen for the duration of the
	// round.  May be nil for rounds that only compute locally.
	Read *dht.Store
	// Body processes one work item on the machine owning it.
	Body func(ctx *Ctx, item int) error
	// Partitioner assigns work item i to a machine in [0, Machines); nil
	// defaults to i mod Machines.  The core algorithms pass
	// vertex-ownership partitioners (OwnerPartitioner /
	// BlockOwnerPartitioner) so that, under the owner-affine placement,
	// each machine's key-value traffic for its own vertices stays local.
	// The assignment never changes results — only which machine does the
	// work, and therefore the locality statistics and modeled time.  It
	// must be pure: it is called twice per item.
	Partitioner func(item int) int
}

// preparedRound is one round made ready for execution: per-machine contexts
// built and work items partitioned into machine jobs.
type preparedRound struct {
	ctxs []*Ctx
	jobs []*machineJob
}

// prepareRound counts the round, builds the per-machine contexts and
// partitions the work items into machine jobs.  Freezing the round's Read
// store is the executor's business (runSegment); the caches in front of it
// refuse an unfrozen store.  Item errors are captured per job
// (machineJob.recordErr).
func (j *Job) prepareRound(round Round) (*preparedRound, error) {
	cfg := j.cfg
	ctxs := make([]*Ctx, cfg.Machines)
	for m := range ctxs {
		ctxs[m] = &Ctx{Machine: m, job: j, read: round.Read, buffered: cfg.FaultBudget > 0}
		if cfg.EnableCache && round.Read != nil {
			c, err := j.cacheFor(round.Read, m)
			if err != nil {
				return nil, fmt.Errorf("ampc: round %q: %w", round.Name, err)
			}
			ctxs[m].cache = c
		}
	}
	j.mu.Lock()
	j.stats.Rounds++
	j.mu.Unlock()

	abortOnErr := cfg.FaultBudget > 0 // the failed share will be retried whole
	jobs := make([]*machineJob, cfg.Machines)
	if round.Partitioner == nil {
		// Items owned by machine m: m, m+P, m+2P, ...
		for m := 0; m < cfg.Machines && m < round.Items; m++ {
			jobs[m] = &machineJob{
				name:       round.Name,
				machine:    m,
				ctx:        ctxs[m],
				body:       round.Body,
				count:      (round.Items - m + cfg.Machines - 1) / cfg.Machines,
				itemAt:     func(k int) int { return m + k*cfg.Machines },
				abortOnErr: abortOnErr,
			}
		}
	} else {
		// Count each machine's items, then place them, in item order, into
		// one exactly sized array sliced per machine: once placed, machine
		// m's items are all[ends[m-1]:ends[m]].  The indices are uint32,
		// which covers every vertex id (graph.NodeID) an owner-partitioned
		// round runs over.
		machineOf := func(i int) int {
			m := round.Partitioner(i)
			if m < 0 || m >= cfg.Machines {
				m = ((m % cfg.Machines) + cfg.Machines) % cfg.Machines
			}
			return m
		}
		ends := make([]int, cfg.Machines)
		for i := 0; i < round.Items; i++ {
			ends[machineOf(i)]++
		}
		sum := 0
		for m, c := range ends {
			ends[m] = sum // machine m's first slot, advanced as items land
			sum += c
		}
		all := make([]uint32, round.Items)
		for i := 0; i < round.Items; i++ {
			m := machineOf(i)
			all[ends[m]] = uint32(i)
			ends[m]++
		}
		for m := range jobs {
			lo := 0
			if m > 0 {
				lo = ends[m-1]
			}
			items := all[lo:ends[m]]
			if len(items) == 0 {
				continue
			}
			jobs[m] = &machineJob{
				name:       round.Name,
				machine:    m,
				ctx:        ctxs[m],
				body:       round.Body,
				count:      len(items),
				itemAt:     func(k int) int { return int(items[k]) },
				abortOnErr: abortOnErr,
			}
		}
	}
	return &preparedRound{ctxs: ctxs, jobs: jobs}, nil
}

// absorbRoundStats folds a finished round's per-context counts into the
// job statistics.
func (j *Job) absorbRoundStats(ctxs []*Ctx) {
	j.mu.Lock()
	if j.stats.MachineQueries == nil {
		j.stats.MachineQueries = make([]int64, j.cfg.Machines)
		j.stats.MachineBusy = make([]time.Duration, j.cfg.Machines)
	}
	for _, ctx := range ctxs {
		w, q := ctx.counts(), ctx.queries.Load()
		j.stats.MaxMachineQueries = max(j.stats.MaxMachineQueries, q)
		keys := w[simtime.BatchReadKeys] + w[simtime.BatchWriteKeys]
		visits := w[simtime.BatchReadLocal] + w[simtime.BatchReadRemote] + w[simtime.BatchWriteLocal] + w[simtime.BatchWriteRemote]
		j.stats.BatchesIssued += w[simtime.BatchReads] + w[simtime.BatchWrites]
		j.stats.BatchedKeys += keys
		j.stats.ShardVisitsSaved += keys - visits // a batch visits at most one shard per key
		j.stats.MachineQueries[ctx.Machine] += q
		j.stats.MachineBusy[ctx.Machine] += ctx.busy()
	}
	j.mu.Unlock()
}
