package ampc

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ampcgraph/internal/dht"
	"ampcgraph/internal/simtime"
)

// Session is the long-lived shared substrate of the execution stack: the
// persistent worker pool, the ownership table and the resident stores with
// their per-machine caches live here and survive across jobs.  Many
// concurrent Jobs — one execution each — run against one Session through
// Session.NewJob; the one-shot job returned by New has a private Session of
// its own.
//
// A store has one owner, which closes it once: opened on the session
// (OpenStore, OpenSharedStore) it stays resident until Session.Close; opened
// on a job (Job.OpenStore) it is one of that job's round tables, dead once
// the computation has returned, and Job.Close releases it — so a warm session
// holds its resident stores plus those of the jobs in flight, however many
// jobs it has served.
//
// A Session is safe for concurrent use.  Close tears down the pool, the
// stores and the disk footprint after in-flight rounds drain; every
// operation issued afterwards fails with ErrClosed.
type Session struct {
	cfg Config

	mu sync.Mutex
	// stores are the live stores: the session's own plus those of open jobs.
	stores []*dht.Store
	// retired totals the store-derived counters of every store a job has
	// released, so session-wide statistics keep counting their traffic.
	retired   Stats
	diskBase  string // per-session parent dir of disk-backend stores
	diskSeq   int    // disk-backend store directories handed out so far
	keyspace  int
	ownership *dht.Ownership
	caches    map[*dht.Store][]*dht.Cache
	// weights is the per-key weight vector the ownership table was built
	// from, so re-declaring the same weights keeps the table.
	weights []int

	// sharedMu guards shared and serializes OpenSharedStore, so one creator
	// wins per name.
	sharedMu sync.Mutex
	shared   map[string]*dht.Store

	// Admission gate: at most cfg.MaxJobs jobs run concurrently; further
	// NewJob calls queue FIFO until a running job Closes.
	admitMu sync.Mutex
	running int
	waiters []chan struct{}

	// lifecycle serializes Close against in-flight rounds: every round
	// holds a read lock for its whole duration, so Close (write lock)
	// waits for running rounds to drain before closing the pool and can
	// never race a dispatch or a late pool spawn.
	lifecycle sync.RWMutex
	poolOnce  sync.Once
	pool      *workerPool
	closed    atomic.Bool
}

// NewSession returns a long-lived session with the given configuration.
// Callers submit work through NewJob (or NewJobContext) and must Close the
// session when done with all jobs.
func NewSession(cfg Config) *Session {
	return &Session{
		cfg:    cfg.WithDefaults(),
		caches: make(map[*dht.Store][]*dht.Cache),
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Session) Config() Config { return s.cfg }

// newJob builds a job bound to this session.
func (s *Session) newJob(ctx context.Context) *Job {
	return &Job{Session: s, clock: &simtime.Clock{}, ctx: ctx, started: time.Now()}
}

// NewJob admits one new execution against the session.  With Config.MaxJobs
// set, NewJob blocks — FIFO — while MaxJobs jobs are already running; the slot
// is released by Close on the returned job (which closes only the job and the
// stores it opened; the session and its stores survive).
func (s *Session) NewJob() (*Job, error) { return s.NewJobContext(context.Background()) }

// NewJobContext is NewJob bound to a context: cancelling ctx abandons the
// wait for an admission slot, and every round the job later runs checks the
// context as its machine shares complete, so a cancelled job fails fast
// while the session stays reusable.
func (s *Session) NewJobContext(ctx context.Context) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.closed.Load() {
		return nil, fmt.Errorf("ampc: new job: %w", ErrClosed)
	}
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	return s.newJob(ctx), nil
}

// admit blocks until a job slot is free (FIFO order) or ctx is cancelled.
func (s *Session) admit(ctx context.Context) error {
	s.admitMu.Lock()
	if s.cfg.MaxJobs <= 0 || s.running < s.cfg.MaxJobs {
		s.running++
		s.admitMu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	s.waiters = append(s.waiters, ch)
	s.admitMu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		s.admitMu.Lock()
		for i, w := range s.waiters {
			if w == ch {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				s.admitMu.Unlock()
				return fmt.Errorf("ampc: job admission: %w", ctx.Err())
			}
		}
		s.admitMu.Unlock()
		// The slot was already handed to us; give it back.
		s.release()
		return fmt.Errorf("ampc: job admission: %w", ctx.Err())
	}
}

// release frees one admission slot, handing it to the oldest waiter if any.
func (s *Session) release() {
	s.admitMu.Lock()
	if len(s.waiters) > 0 {
		ch := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.admitMu.Unlock()
		close(ch)
		return
	}
	s.running--
	s.admitMu.Unlock()
}

// SetKeyspace declares the keyspace [0, n) of the hash tables the session
// will create — usually the number of vertices.  The owner-affine placement
// policy needs it to range-partition keys across machines; stores created
// before the call (or without a keyspace) fall back to hash placement.  A
// weighted ownership table previously declared through SetOwnership is kept
// only while its keyspace matches n; declaring a different keyspace drops it
// (partitioners and placement must never disagree on who owns a key).
func (s *Session) SetKeyspace(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keyspace = n
	if s.ownership != nil && s.ownership.Keys() != n {
		s.ownership = nil
		s.weights = nil
	}
}

// SetOwnership declares per-key weights (usually vertex degrees) for the
// keyspace [0, len(weights)) and, under Config.Placement ==
// PlacementWeighted, builds the degree-weighted ownership table that both
// the shard placement of subsequently created stores and the ownership
// partitioners (Owner, OwnerPartitioner, BlockOwnerPartitioner) answer
// from.  Under any other placement it only declares the keyspace, exactly
// like SetKeyspace — the partitioners keep using the uniform range split
// that matches the owner-affine placement.  Either way placement never
// changes results, only where keys live and which machine does which work.
//
// Re-declaring weights identical to the current ones keeps the table, so
// concurrent jobs prepared against the same graph do not thrash it; any
// other weights build a new one.
func (s *Session) SetOwnership(weights []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keyspace = len(weights)
	if s.cfg.Placement != PlacementWeighted || len(weights) == 0 {
		s.ownership, s.weights = nil, nil
		return
	}
	if s.ownership != nil && slices.Equal(s.weights, weights) {
		return
	}
	s.ownership = dht.NewOwnership(s.cfg.Machines, weights)
	s.weights = append([]int(nil), weights...)
}

// ownershipFor returns the contiguous partition of the keyspace [0, keys)
// that the session's partitioners and placement answer from: the declared
// ownership table when its keyspace matches, the uniform range split
// otherwise.
func (s *Session) ownershipFor(keys int) *dht.Ownership {
	s.mu.Lock()
	own := s.ownership
	s.mu.Unlock()
	if own != nil && own.Keys() == keys {
		return own
	}
	return dht.RangeOwnership(s.cfg.Machines, keys)
}

// Close releases the session's persistent worker pool and the resources of
// every store still live — the session's own and those of jobs not yet
// closed (log files of the disk backend, sockets of the rpc backend) —
// waiting for any in-flight round of any job to drain first.  It is safe to
// call more than once and on sessions that never ran a round; statistics —
// including the stores' operation counters — remain readable after Close.
// Close must not be called from inside a Round body.
func (s *Session) Close() {
	s.lifecycle.Lock()
	defer s.lifecycle.Unlock()
	if s.closed.Swap(true) {
		return
	}
	s.mu.Lock()
	p := s.pool
	stores := append([]*dht.Store(nil), s.stores...)
	diskBase := s.diskBase
	s.mu.Unlock()
	if p != nil {
		p.close()
	}
	for _, st := range stores {
		st.Close()
	}
	if diskBase != "" {
		os.RemoveAll(diskBase)
	}
}

// workers returns the persistent pool, spawning it on first use.
func (s *Session) workers() *workerPool {
	s.poolOnce.Do(func() {
		p := newWorkerPool(s.cfg.Machines, s.cfg.Threads)
		s.mu.Lock()
		s.pool = p
		s.mu.Unlock()
	})
	return s.pool
}

// placement builds the dht placement policy for a new store: co-location by
// the session's ownership of the declared keyspace under the owner-affine
// and weighted policies (uniform until weights are declared; hashing while
// no keyspace is), uniform hashing otherwise.
func (s *Session) placement() dht.Placement {
	if s.cfg.Placement != PlacementOwnerAffine && s.cfg.Placement != PlacementWeighted {
		return dht.HashRandom()
	}
	s.mu.Lock()
	keys := s.keyspace
	s.mu.Unlock()
	return dht.OwnershipPlacement(s.ownershipFor(keys))
}

// OwnerPartitioner returns a Round partitioner assigning work item i (a key
// in [0, keys)) to the machine that owns it, so that lookups and writes of a
// round's own keys stay local under the owner-affine and weighted
// placements.  The ownership function is captured when the partitioner is
// built: rounds built after SetOwnership partition by the same table their
// stores were placed with.
func (s *Session) OwnerPartitioner(keys int) func(int) int {
	own := s.ownershipFor(keys)
	return func(item int) int { return own.OwnerOf(uint64(item)) }
}

// BlockOwnerPartitioner returns a Round partitioner for lock-step block
// rounds over the dense key range itself (see NumBlocks): block b, covering
// keys [b·size, (b+1)·size), is assigned to the machine owning its first key.
// The block grid is fixed by size alone, so a block may straddle an ownership
// boundary — at most one per boundary, Machines-1 in all — and its tail then
// runs on the neighbouring owner; every other block is wholly owned.  Rounds
// whose blocks run over an indirect item list, where one straddling block
// can be the whole round, cut at the boundaries instead (OwnerCutBlocks).
// Like OwnerPartitioner it answers from the weighted ownership table when one
// is declared.
func (s *Session) BlockOwnerPartitioner(size, items int) func(int) int {
	owner := s.OwnerPartitioner(items)
	return func(block int) int {
		lo, _ := BlockBounds(block, size, items)
		return owner(lo)
	}
}

// OwnedBlock is one lock-step block of an item list cut by OwnerCutBlocks:
// items [Lo, Hi), every one of them keyed to a key Machine owns.
type OwnedBlock struct {
	Lo, Hi  int
	Machine int
}

// OwnerCutBlocks cuts the item list [0, items) — item i working on key
// keyOf(i) of the keyspace [0, keys), as a sample list works on its sampled
// vertices — into lock-step blocks of at most size consecutive items, cutting
// also wherever the key's owner changes.  No block holds items of two owners
// and every machine owning an item gets at least one block, which a grid of
// size-item blocks assigned by first item does not give: with items <= size
// that grid is one block and one machine runs the whole round.  A round over
// the blocks uses len(blocks) as Items, blocks[b].Machine as Partitioner and
// [blocks[b].Lo, blocks[b].Hi) in its Body.
func (s *Session) OwnerCutBlocks(size, items, keys int, keyOf func(item int) int) []OwnedBlock {
	if size <= 0 {
		size = 1
	}
	owner := s.OwnerPartitioner(keys)
	var blocks []OwnedBlock
	for i := 0; i < items; i++ {
		m := owner(keyOf(i))
		if last := len(blocks) - 1; last >= 0 && blocks[last].Machine == m && blocks[last].Hi-blocks[last].Lo < size {
			blocks[last].Hi++
			continue
		}
		blocks = append(blocks, OwnedBlock{Lo: i, Hi: i + 1, Machine: m})
	}
	return blocks
}

// OpenStore creates and registers the next distributed hash table (D0, D1, …)
// as a resident store of the session: it is shared by every job and closed at
// Session.Close.  A job's own round tables are opened on the job instead
// (Job.OpenStore) and leave with the job.
func (s *Session) OpenStore(name string) (*dht.Store, error) { return s.openStore(name, nil) }

// ownedStore is a store a job opened, with the directory the disk backend
// logs it into ("" on the other backends).
type ownedStore struct {
	store *dht.Store
	dir   string
}

// openStore creates a store and registers it as live, owned by owner (nil:
// the session).
func (s *Session) openStore(name string, owner *Job) (*dht.Store, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("ampc: opening store %q: %w", name, ErrClosed)
	}
	opts := dht.Options{
		Shards:    s.cfg.Shards,
		Replicate: s.cfg.Replicate,
		Placement: s.placement(),
		Backend:   dht.BackendKind(s.cfg.Backend),
		Faults:    s.cfg.Faults,
		Retry:     s.cfg.Retry,
	}
	if opts.Backend == dht.BackendDisk {
		dir, err := s.diskDirFor(name)
		if err != nil {
			return nil, err
		}
		opts.DiskDir = dir
	}
	st, err := dht.NewStore(name, opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	// Job.Close marks the job closed before it collects the job's stores
	// under this lock, so a store registered here is always released.
	if owner != nil && owner.closed.Load() {
		s.mu.Unlock()
		st.Close()
		os.RemoveAll(opts.DiskDir)
		return nil, fmt.Errorf("ampc: opening store %q: %w", name, ErrClosed)
	}
	s.stores = append(s.stores, st)
	if owner != nil {
		owner.owned = append(owner.owned, ownedStore{st, opts.DiskDir})
	}
	s.mu.Unlock()
	return st, nil
}

// releaseStores drops the stores j opened: their counters and their caches'
// fold into s.retired, the session forgets them, and their backends (disk
// logs and directory, rpc listener and socket dir) are closed.  The
// lifecycle read lock excludes Session.Close, which walks the live stores.
func (s *Session) releaseStores(j *Job) {
	s.lifecycle.RLock()
	defer s.lifecycle.RUnlock()
	s.mu.Lock()
	owned := j.owned
	j.owned = nil
	for _, o := range owned {
		bs := o.store.BackendStats()
		bs.DiskBytes, bs.ResidentBytes = 0, 0 // the footprint leaves with the store
		s.retired.addStore(o.store.Stats(), bs, s.caches[o.store])
		delete(s.caches, o.store)
	}
	s.stores = slices.DeleteFunc(s.stores, func(st *dht.Store) bool {
		return slices.ContainsFunc(owned, func(o ownedStore) bool { return o.store == st })
	})
	s.mu.Unlock()
	for _, o := range owned {
		o.store.Close()
		os.RemoveAll(o.dir)
	}
}

// OpenSharedStore returns the resident store registered under name, creating
// it on first call.  This is the seam concurrent jobs share input tables
// through: the first job to ask for "graph" creates and fills the store,
// and every later job gets the same (typically frozen) store back instead
// of rebuilding it.  The session owns the store like any other resident one
// and closes it once, at Session.Close; callers must not Close it themselves.
func (s *Session) OpenSharedStore(name string) (*dht.Store, error) {
	s.sharedMu.Lock()
	defer s.sharedMu.Unlock()
	if st := s.shared[name]; st != nil {
		return st, nil
	}
	st, err := s.OpenStore(name)
	if err != nil {
		return nil, err
	}
	if s.shared == nil {
		s.shared = make(map[string]*dht.Store)
	}
	s.shared[name] = st
	return st, nil
}

// diskDirFor returns a fresh per-store log directory under the session's
// private disk base, creating the base on first use.  Every store gets its
// own directory — reusing one would replay another store's logs — numbered
// from a per-session sequence allocated under the lock, so concurrent jobs
// opening the same store name still get distinct directories.
func (s *Session) diskDirFor(name string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.diskBase == "" {
		base, err := os.MkdirTemp(s.cfg.DiskDir, "ampc-disk-*")
		if err != nil {
			return "", fmt.Errorf("ampc: creating disk base dir: %w", err)
		}
		s.diskBase = base
	}
	dir := filepath.Join(s.diskBase, fmt.Sprintf("%03d-%s", s.diskSeq, name))
	s.diskSeq++
	return dir, nil
}

// cacheFor returns machine's persistent cache in front of store, creating it
// on first use.  A cache fronts only a frozen store — a frozen store rejects
// writes, so entries can never go stale — and an unfrozen one is an error.
// Caches survive across rounds and across jobs, so concurrent jobs reading
// the same shared store share its warm cache.
func (s *Session) cacheFor(store *dht.Store, machine int) (*dht.Cache, error) {
	if !store.Frozen() {
		return nil, fmt.Errorf("ampc: cache requested for unfrozen store %q", store.Name())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.caches[store]
	if cs == nil {
		cs = make([]*dht.Cache, s.cfg.Machines)
		s.caches[store] = cs
	}
	if cs[machine] == nil {
		c := dht.NewCache(store)
		// A machine mostly caches its own share of the keys; the table
		// starts at that size and grows past it only for a hot machine.
		c.Reserve(store.Len() / s.cfg.Machines)
		cs[machine] = c
	}
	return cs[machine], nil
}

// kvBytes totals the bytes moved through every store the session has held.
func (s *Session) kvBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.retired.KVBytesRead + s.retired.KVBytesWritten
	for _, st := range s.stores {
		total += st.TotalBytes()
	}
	return total
}

// addStore adds one store's counters, and its per-machine caches', to st.
func (st *Stats) addStore(ds dht.Stats, bs dht.BackendStats, caches []*dht.Cache) {
	st.KVReads += ds.Reads
	st.KVWrites += ds.Writes
	st.KVBytesRead += ds.BytesRead
	st.KVBytesWritten += ds.BytesWritten
	st.KVShardVisits += ds.ShardVisits
	st.LocalReads += ds.LocalReads
	st.RemoteReads += ds.RemoteReads
	st.KVRemoteBytes += ds.RemoteBytes
	st.KVFailovers += ds.Failovers
	st.KVRetries += ds.Retries
	st.Backend.Kind = bs.Kind
	st.Backend.DiskBytes += bs.DiskBytes
	st.Backend.ResidentBytes += bs.ResidentBytes
	st.Backend.WireReadOps += bs.WireReadOps
	st.Backend.WireWriteOps += bs.WireWriteOps
	st.Backend.WireBytes += bs.WireBytes
	st.Backend.WireReadTime += bs.WireReadTime
	st.Backend.WireWriteTime += bs.WireWriteTime
	st.Backend.Reconnects += bs.Reconnects
	for _, c := range caches {
		if c != nil {
			st.CacheHits += c.Hits()
			st.CacheMisses += c.Misses()
		}
	}
}
