package ampc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ampcgraph/internal/dht"
	"ampcgraph/internal/simtime"
)

// refReadMany is ReadMany as it stood before the batch cache probes: one
// Cache.Peek and one Cache.Fill per key, a fresh dedupe map per call.  It is
// the reference the rewritten read path is held against.
func (c *Ctx) refReadMany(keys []uint64) ([][]byte, []bool, error) {
	if c.read == nil {
		return nil, nil, fmt.Errorf("ampc: round has no input store")
	}
	if len(keys) == 0 {
		return nil, nil, nil
	}
	c.queries.Add(int64(len(keys)))
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	missKeys := keys
	var missPos, missIdx []int // position in keys / index into missKeys
	if c.cache != nil {
		missKeys = missKeys[:0:0]
		index := make(map[uint64]int)
		for i, k := range keys {
			if v, ok, cached := c.cache.Peek(k); cached {
				vals[i] = v
				oks[i] = ok
				c.count(simtime.CacheHits, 1)
				continue
			}
			j, seen := index[k]
			if !seen {
				j = len(missKeys)
				index[k] = j
				missKeys = append(missKeys, k)
			}
			missPos = append(missPos, i)
			missIdx = append(missIdx, j)
		}
		if len(missKeys) == 0 {
			return vals, oks, nil
		}
	}
	mv, mo, visits, err := c.read.View(c.Machine).BatchGet(missKeys)
	if err != nil {
		return nil, nil, err
	}
	c.countBatch(false, len(missKeys), visits)
	if missPos == nil {
		copy(vals, mv)
		copy(oks, mo)
	} else {
		for j := range missKeys {
			c.cache.Fill(missKeys[j], mv[j], mo[j])
		}
		for t, p := range missPos {
			vals[p] = mv[missIdx[t]]
			oks[p] = mo[missIdx[t]]
		}
	}
	return vals, oks, nil
}

// refStream is Stream as it stood before the scratch reuse: a fresh need
// slice, seen map and pull closure per cycle, fetched through refReadMany.
func (c *Ctx) refStream(window int, its []Iterator, fill func(key uint64, raw []byte, ok bool) error) error {
	if window <= 0 || window > len(its) {
		window = len(its)
	}
	next := 0
	live := make([]Iterator, 0, window)
	for {
		var need []uint64
		seen := make(map[uint64]bool)
		still := live[:0]
		pull := func(it Iterator) {
			key, suspended := it.Pull()
			if !suspended {
				return
			}
			still = append(still, it)
			if !seen[key] {
				seen[key] = true
				need = append(need, key)
			}
		}
		for _, it := range live {
			pull(it)
		}
		for len(still) < window && next < len(its) {
			pull(its[next])
			next++
		}
		live = still
		if len(live) == 0 {
			return nil
		}
		vals, oks, err := c.refReadMany(need)
		if err != nil {
			return err
		}
		for i, k := range need {
			if err := fill(k, vals[i], oks[i]); err != nil {
				return err
			}
		}
	}
}

// streamTrial is one random input of the Stream property test: per machine,
// two sets of scripted iterators (the second re-reads part of what the first
// fetched, so a cached run sees hits and misses in one batch), each iterator
// suspending on its script's keys in order.
type streamTrial struct {
	cfg     Config
	window  int
	scripts [2][][][]uint64 // [call][machine][iterator] -> keys
}

const (
	streamTrialKeys    = 48 // keys the scripts draw from
	streamTrialPresent = 36 // keys [0, present) exist in the store
)

// streamOutcome is everything the two implementations must agree on.
type streamOutcome struct {
	Traces  [][]string // per machine: every Pull and every fill, in order
	Queries []int64
	Written map[uint64]string
	Stats   Stats
}

// run executes the trial through stream (the new or the reference
// implementation) on a fresh runtime.
func (tr streamTrial) run(t *testing.T, stream func(*Ctx, int, []Iterator, func(uint64, []byte, bool) error) error) streamOutcome {
	t.Helper()
	rt := New(tr.cfg)
	defer rt.Close()
	rt.SetKeyspace(streamTrialKeys)
	in, out := newStore(t, rt, "in"), newStore(t, rt, "out")
	err := rt.Run(rt.WriteTableRound("fill", in, streamTrialPresent, 0, func(i int) []byte {
		return []byte{byte(i), byte(i >> 1)}
	}))
	if err != nil {
		t.Fatal(err)
	}
	machines := tr.cfg.Machines
	res := streamOutcome{Traces: make([][]string, machines), Queries: make([]int64, machines), Written: map[uint64]string{}}
	err = rt.Run(Round{
		Name:        "stream",
		Items:       machines,
		Read:        in,
		Partitioner: func(item int) int { return item },
		Body: func(ctx *Ctx, m int) error {
			for call := range tr.scripts {
				var its []Iterator
				for i, script := range tr.scripts[call][m] {
					pos := 0
					its = append(its, PullFunc(func() (uint64, bool) {
						res.Traces[m] = append(res.Traces[m], fmt.Sprintf("call %d pull %d", call, i))
						if pos == len(script) {
							return 0, false
						}
						pos++
						return script[pos-1], true
					}))
				}
				fills := 0
				err := stream(ctx, tr.window, its, func(k uint64, raw []byte, ok bool) error {
					res.Traces[m] = append(res.Traces[m], fmt.Sprintf("call %d fill %d %v %v", call, k, raw, ok))
					fills++
					return nil
				})
				if err != nil {
					return err
				}
				// A buffered round (FaultBudget) must keep its writes apart
				// from the read path's scratch.
				if err := ctx.WriteMany(out, []dht.Pair{{Key: uint64(m*2 + call), Value: []byte{byte(fills)}}}); err != nil {
					return err
				}
			}
			res.Queries[m] = ctx.queries.Load()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out.Range(func(k uint64, v []byte) bool {
		res.Written[k] = string(v)
		return true
	})
	res.Stats = rt.Stats()
	res.Stats.Wall, res.Stats.Phases = 0, nil // measured, not modeled
	return res
}

func randomStreamTrial(rnd *rand.Rand) streamTrial {
	tr := streamTrial{cfg: Config{
		Machines:    1 + rnd.Intn(3),
		Threads:     1,
		EnableCache: rnd.Intn(2) == 0,
		Batch:       true,
		Placement:   []string{PlacementHash, PlacementOwnerAffine}[rnd.Intn(2)],
		Seed:        rnd.Int63(),
	}}
	if rnd.Intn(3) == 0 {
		tr.cfg.FaultBudget = 2
	}
	maxIts := 1 + rnd.Intn(12)
	tr.window = rnd.Intn(maxIts + 2) // 0 (all), below len, at or past len
	for call := range tr.scripts {
		tr.scripts[call] = make([][][]uint64, tr.cfg.Machines)
		for m := range tr.scripts[call] {
			for i := rnd.Intn(maxIts + 1); i > 0; i-- {
				script := make([]uint64, rnd.Intn(6))
				for j := range script {
					// A narrow key range: duplicates within a cycle, absent
					// keys, and keys the first call already cached.
					script[j] = uint64(rnd.Intn(streamTrialKeys))
				}
				tr.scripts[call][m] = append(tr.scripts[call][m], script)
			}
		}
	}
	return tr
}

// TestStreamMatchesReference drives the rewritten Stream and the kept
// reference over random iterator sets — duplicate keys within a cycle,
// windows below the iterator count, absent keys, cache on and off, buffered
// (FaultBudget) rounds — and requires the same sequence of pulls and fills per
// machine (so the same keys, in the same order, in the same fetch cycles), the same
// Ctx.Queries, and identical statistics: batches, batched keys, shard
// visits saved, cache hits and misses, KV reads, and modeled time.
func TestStreamMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(18))
	for trial := 0; trial < 150; trial++ {
		tr := randomStreamTrial(rnd)
		got := tr.run(t, (*Ctx).Stream)
		want := tr.run(t, (*Ctx).refStream)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%+v, window %d, scripts %v):\n got  %+v\n want %+v", trial, tr.cfg, tr.window, tr.scripts, got, want)
		}
	}
}

// TestReadManyMatchesReference holds the rewritten ReadMany (batch cache
// probes, dedupe over the misses only) against the per-key reference on
// random key lists with repeats, absent keys and a partly warm cache.
func TestReadManyMatchesReference(t *testing.T) {
	type outcome struct {
		Vals  [][][]byte
		Oks   [][]bool
		Stats Stats
	}
	run := func(cfg Config, lists [][]uint64, read func(*Ctx, []uint64) ([][]byte, []bool, error)) outcome {
		rt := New(cfg)
		defer rt.Close()
		in := newStore(t, rt, "in")
		fillStore(t, rt, in, streamTrialPresent)
		var res outcome
		err := rt.Run(Round{Name: "read", Items: 1, Read: in, Body: func(ctx *Ctx, _ int) error {
			for _, keys := range lists {
				vals, oks, err := read(ctx, keys)
				if err != nil {
					return err
				}
				res.Vals, res.Oks = append(res.Vals, vals), append(res.Oks, oks)
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		res.Stats = rt.Stats()
		res.Stats.Wall, res.Stats.Phases = 0, nil
		return res
	}
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		cfg := Config{Machines: 1, Threads: 1, EnableCache: trial%2 == 0, Seed: int64(trial)}
		lists := make([][]uint64, 1+rnd.Intn(4))
		for i := range lists {
			lists[i] = make([]uint64, rnd.Intn(20))
			for j := range lists[i] {
				lists[i][j] = uint64(rnd.Intn(streamTrialKeys))
			}
		}
		got, want := run(cfg, lists, (*Ctx).ReadMany), run(cfg, lists, (*Ctx).refReadMany)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (cache %v, keys %v):\n got  %+v\n want %+v", trial, cfg.EnableCache, lists, got, want)
		}
	}
}

// TestStreamCycleAllocatesConstant is the allocation guard of the batch read
// path: with 512 iterators live, one more fetch cycle costs a number of
// allocations bounded by the shard count (the store's reply), not by the 512
// keys it carries — and none at all when the cache answers every key.
func TestStreamCycleAllocatesConstant(t *testing.T) {
	const live = 512
	for _, cache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			rt := New(Config{Machines: 1, Threads: 1, EnableCache: cache, Batch: true, Shards: 4})
			defer rt.Close()
			in := newStore(t, rt, "in")
			if err := rt.WriteTable("fill", in, 4*live, 0, func(i int) []byte { return []byte{byte(i)} }); err != nil {
				t.Fatal(err)
			}
			var perCycle float64
			err := rt.Run(Round{Name: "stream", Items: 1, Read: in, Body: func(ctx *Ctx, _ int) error {
				pos := make([]int, live)
				its := make([]Iterator, live)
				cycles := 0
				for i := range its {
					its[i] = PullFunc(func() (uint64, bool) {
						if pos[i] == cycles {
							return 0, false
						}
						pos[i]++
						return uint64((pos[i]*live + i) % (4 * live)), true
					})
				}
				stream := func() {
					clear(pos)
					if err := ctx.Stream(0, its, func(uint64, []byte, bool) error { return nil }); err != nil {
						t.Error(err)
					}
				}
				measure := func(n int) float64 {
					cycles = n
					stream() // warm: the cache, when there is one, now holds every key
					return testing.AllocsPerRun(5, stream)
				}
				short, long := measure(4), measure(20)
				perCycle = (long - short) / 16
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			// Uncached: the store's vals/oks, the counting sort's buffer, the
			// grouped keys, and two slices per shard visited.
			limit := 4.0 + 2*4
			if cache {
				limit = 0
			}
			if perCycle > limit {
				t.Fatalf("a fetch cycle over %d keys allocates %.1f objects, want <= %.0f", live, perCycle, limit)
			}
		})
	}
}

func TestKeySetClearsByEpoch(t *testing.T) {
	s := newKeySet(4)
	if !s.add(9) || s.add(9) || !s.add(0) || s.add(0) {
		t.Fatal("add must report first insertion only")
	}
	s.clear()
	if !s.add(9) {
		t.Fatal("clear must empty the set")
	}
	// An epoch wrap zeroes the slots instead of letting stale stamps match.
	s.epoch = ^uint32(0)
	s.add(3)
	s.clear()
	if s.epoch != 1 || !s.add(3) {
		t.Fatalf("epoch wrap: epoch %d", s.epoch)
	}
}

var benchVals [][]byte

// BenchmarkReadManyWarm measures one 512-key ReadMany against a warm
// per-machine cache — one batch probe under one lock, no store traffic — per
// key.
func BenchmarkReadManyWarm(b *testing.B) {
	const block = 512
	rt := New(Config{Machines: 1, Threads: 1, EnableCache: true, Batch: true})
	defer rt.Close()
	in := newStore(b, rt, "in")
	if err := rt.WriteTable("fill", in, block, 0, func(i int) []byte { return []byte{byte(i)} }); err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, block)
	for i := range keys {
		keys[i] = uint64(i)
	}
	b.ReportAllocs()
	err := rt.Run(Round{Name: "read", Items: 1, Read: in, Body: func(ctx *Ctx, _ int) error {
		if _, _, err := ctx.ReadMany(keys); err != nil { // warm the cache
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vals, _, err := ctx.ReadMany(keys)
			if err != nil {
				return err
			}
			benchVals = vals
		}
		b.StopTimer()
		return nil
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/block, "ns/key")
}
