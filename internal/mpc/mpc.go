// Package mpc implements a Flume/Beam-style dataflow runtime that plays the
// role of the MPC model in the paper's evaluation.
//
// A computation is expressed over Collections (the paper's PCollections) via
// ParDo (element-wise, fully parallel), GroupByKey (a shuffle: the only way
// workers exchange large amounts of data, and the expensive step that writes
// its output to durable storage in the paper's production environment) and
// Flatten.  The pipeline counts shuffles and shuffle bytes — the quantities
// of Table 3 and Figure 3 — and charges a simulated clock for the fixed and
// per-byte shuffle cost so that MPC and AMPC executions can be compared on
// modeled time as well as wall-clock time.
package mpc

import (
	"runtime"
	"sync"
	"time"

	"ampcgraph/internal/simtime"
)

// Config configures a Pipeline.
type Config struct {
	// Workers is the number of parallel workers used by ParDo; it defaults
	// to GOMAXPROCS.
	Workers int
	// Model is the cost model used for simulated time.
	Model simtime.CostModel
	// Seed drives hash-based randomness of algorithms run on the pipeline.
	Seed int64
}

// WithDefaults returns a copy of c with unset fields defaulted.
func (c Config) WithDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Model.Name == "" {
		c.Model = simtime.RDMA()
	}
	return c
}

// PhaseStat records one named phase of an MPC algorithm.
type PhaseStat struct {
	Name         string
	Wall         time.Duration
	Sim          time.Duration
	Shuffles     int
	ShuffleBytes int64
}

// Stats aggregates the cost counters of a pipeline.
type Stats struct {
	Shuffles     int
	ShuffleBytes int64
	MaxGroupSize int   // largest single key group seen in any shuffle (join skew)
	Elements     int64 // elements processed by ParDo
	Wall         time.Duration
	Sim          time.Duration
	Phases       []PhaseStat
}

// Pipeline tracks the cost of a dataflow computation.
type Pipeline struct {
	cfg   Config
	clock *simtime.Clock

	mu         sync.Mutex
	stats      Stats
	phaseStack []phaseFrame
	started    time.Time
}

type phaseFrame struct {
	name         string
	start        time.Time
	simStart     time.Duration
	shuffles     int
	shuffleBytes int64
}

// NewPipeline returns a pipeline with the given configuration.
func NewPipeline(cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg.WithDefaults(), clock: &simtime.Clock{}, started: time.Now()}
}

// Config returns the effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Clock returns the pipeline's simulated clock.
func (p *Pipeline) Clock() *simtime.Clock { return p.clock }

// Seed returns the pipeline's random seed.
func (p *Pipeline) Seed() int64 { return p.cfg.Seed }

// Stats returns a snapshot of the pipeline statistics.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Phases = append([]PhaseStat(nil), p.stats.Phases...)
	st.Wall = time.Since(p.started)
	st.Sim = p.clock.Elapsed()
	return st
}

// Phase runs fn as a named, timed phase of the computation.
func (p *Pipeline) Phase(name string, fn func()) {
	p.mu.Lock()
	p.phaseStack = append(p.phaseStack, phaseFrame{
		name:     name,
		start:    time.Now(),
		simStart: p.clock.Elapsed(),
	})
	p.mu.Unlock()

	fn()

	p.mu.Lock()
	frame := p.phaseStack[len(p.phaseStack)-1]
	p.phaseStack = p.phaseStack[:len(p.phaseStack)-1]
	p.stats.Phases = append(p.stats.Phases, PhaseStat{
		Name:         frame.name,
		Wall:         time.Since(frame.start),
		Sim:          p.clock.Elapsed() - frame.simStart,
		Shuffles:     frame.shuffles,
		ShuffleBytes: frame.shuffleBytes,
	})
	p.mu.Unlock()
}

func (p *Pipeline) recordShuffle(bytes int64, maxGroup int) {
	p.mu.Lock()
	p.stats.Shuffles++
	p.stats.ShuffleBytes += bytes
	if maxGroup > p.stats.MaxGroupSize {
		p.stats.MaxGroupSize = maxGroup
	}
	if n := len(p.phaseStack); n > 0 {
		p.phaseStack[n-1].shuffles++
		p.phaseStack[n-1].shuffleBytes += bytes
	}
	p.mu.Unlock()
	p.clock.Charge(p.cfg.Model.Price(simtime.Work{simtime.Shuffles: 1, simtime.ShuffleBytes: bytes}, 1))
}

func (p *Pipeline) recordElements(n int64) {
	p.mu.Lock()
	p.stats.Elements += n
	p.mu.Unlock()
	p.clock.Charge(p.cfg.Model.Price(simtime.Work{simtime.Compute: n}, 1) / time.Duration(p.cfg.Workers))
}

// KV is a key-value pair flowing through the pipeline.
type KV[K comparable, V any] struct {
	Key   K
	Value V
}

// Collection is a dataset distributed over the pipeline's workers.
type Collection[T any] struct {
	p     *Pipeline
	items []T
}

// Materialize wraps an in-memory slice as a Collection.  The slice is not
// copied.
func Materialize[T any](p *Pipeline, items []T) *Collection[T] {
	return &Collection[T]{p: p, items: items}
}

// Items returns the underlying elements.  The slice must not be modified.
func (c *Collection[T]) Items() []T { return c.items }

// Len returns the number of elements.
func (c *Collection[T]) Len() int { return len(c.items) }

// Pipeline returns the owning pipeline.
func (c *Collection[T]) Pipeline() *Pipeline { return c.p }

// ParDo applies fn to every element in parallel.  fn receives an emit
// callback; everything emitted forms the output collection.  The output
// order is deterministic: emissions are concatenated in input order.
func ParDo[T, S any](c *Collection[T], fn func(T, func(S))) *Collection[S] {
	p := c.p
	workers := p.cfg.Workers
	n := len(c.items)
	outs := make([][]S, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	if chunk == 0 {
		chunk = 1
	}
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var local []S
			emit := func(s S) { local = append(local, s) }
			for i := lo; i < hi; i++ {
				fn(c.items[i], emit)
			}
			outs[w] = local
		}(w, lo, hi)
	}
	wg.Wait()
	p.recordElements(int64(n))
	var total int
	for _, o := range outs {
		total += len(o)
	}
	merged := make([]S, 0, total)
	for _, o := range outs {
		merged = append(merged, o...)
	}
	return &Collection[S]{p: p, items: merged}
}

// Map applies a 1:1 transformation.
func Map[T, S any](c *Collection[T], fn func(T) S) *Collection[S] {
	return ParDo(c, func(t T, emit func(S)) { emit(fn(t)) })
}

// Filter keeps the elements for which pred is true.
func Filter[T any](c *Collection[T], pred func(T) bool) *Collection[T] {
	return ParDo(c, func(t T, emit func(T)) {
		if pred(t) {
			emit(t)
		}
	})
}

// Count returns the number of elements (no shuffle).
func Count[T any](c *Collection[T]) int { return len(c.items) }

// GroupByKey groups a collection of key-value pairs by key.  This is a
// shuffle: the pipeline's shuffle counter is incremented and the encoded size
// of every pair (as reported by size) is added to the shuffle byte counter.
// Group order is unspecified; values within a group preserve input order.
func GroupByKey[K comparable, V any](c *Collection[KV[K, V]], size func(K, V) int) *Collection[KV[K, []V]] {
	p := c.p
	var bytes int64
	groups := make(map[K][]V)
	for _, kv := range c.items {
		groups[kv.Key] = append(groups[kv.Key], kv.Value)
		bytes += int64(size(kv.Key, kv.Value))
	}
	maxGroup := 0
	out := make([]KV[K, []V], 0, len(groups))
	for k, vs := range groups {
		if len(vs) > maxGroup {
			maxGroup = len(vs)
		}
		out = append(out, KV[K, []V]{Key: k, Value: vs})
	}
	p.recordShuffle(bytes, maxGroup)
	return &Collection[KV[K, []V]]{p: p, items: out}
}

// CoGroupByKey groups two keyed collections by key in a single shuffle,
// producing for every key the values from both inputs.  It is the join
// primitive used by the rootset baselines ("requires joining graph with node
// ids", Figure 2).
func CoGroupByKey[K comparable, A, B any](
	left *Collection[KV[K, A]],
	right *Collection[KV[K, B]],
	sizeA func(K, A) int,
	sizeB func(K, B) int,
) *Collection[KV[K, CoGroup[A, B]]] {
	p := left.p
	var bytes int64
	groups := make(map[K]*CoGroup[A, B])
	get := func(k K) *CoGroup[A, B] {
		g, ok := groups[k]
		if !ok {
			g = &CoGroup[A, B]{}
			groups[k] = g
		}
		return g
	}
	for _, kv := range left.items {
		get(kv.Key).Left = append(get(kv.Key).Left, kv.Value)
		bytes += int64(sizeA(kv.Key, kv.Value))
	}
	for _, kv := range right.items {
		get(kv.Key).Right = append(get(kv.Key).Right, kv.Value)
		bytes += int64(sizeB(kv.Key, kv.Value))
	}
	maxGroup := 0
	out := make([]KV[K, CoGroup[A, B]], 0, len(groups))
	for k, g := range groups {
		if n := len(g.Left) + len(g.Right); n > maxGroup {
			maxGroup = n
		}
		out = append(out, KV[K, CoGroup[A, B]]{Key: k, Value: *g})
	}
	p.recordShuffle(bytes, maxGroup)
	return &Collection[KV[K, CoGroup[A, B]]]{p: p, items: out}
}

// CoGroup holds the values of a single key from the two sides of a
// CoGroupByKey.
type CoGroup[A, B any] struct {
	Left  []A
	Right []B
}

// Flatten concatenates collections.
func Flatten[T any](p *Pipeline, cs ...*Collection[T]) *Collection[T] {
	var total int
	for _, c := range cs {
		total += len(c.items)
	}
	out := make([]T, 0, total)
	for _, c := range cs {
		out = append(out, c.items...)
	}
	return &Collection[T]{p: p, items: out}
}
