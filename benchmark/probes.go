package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ampcgraph/internal/ampc"
	bmm "ampcgraph/internal/baseline/matching"
	bmis "ampcgraph/internal/baseline/mis"
	bmsf "ampcgraph/internal/baseline/msf"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/core/matching"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/core/msf"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/mpc"
)

// The layer probes time calls into each module's public functions from
// outside.  Their input is the encoded adjacency lists of G1 keyed by vertex
// id — real value-size skew, hubs of thousands of neighbours — read in a
// seeded permutation; the small-value variant is 8-byte values under
// smallKeys sequential keys.
const (
	probeBlock = 512 // keys per batched call, ampc's default BatchSize
	smallKeys  = 200_000
	// mpcThreshold is the edge count at which the MPC baselines switch to one
	// machine: internal/bench's default for the scaled stand-ins.
	mpcThreshold = 2_000
)

type prober struct {
	opt   options
	in    *inputSet
	tr    *tracer
	root  int
	vals  map[string]float64
	g     *graph.Graph
	enc   [][]byte // encoded adjacency list per vertex
	ids   []uint64 // 0..n-1
	perm  []uint64 // seeded permutation of ids
	small []uint64 // 0..nSmall-1
	sperm []uint64
	val8  []byte
}

func newProber(opt options, in *inputSet, tr *tracer, root int, vals map[string]float64) *prober {
	p := &prober{opt: opt, in: in, tr: tr, root: root, vals: vals, g: in.get("G1"), val8: codec.EncodeUint64(42)}
	rng := rand.New(rand.NewSource(opt.seed))
	seqPerm := func(n int) (ids, perm []uint64) {
		ids, perm = make([]uint64, n), make([]uint64, n)
		for i, j := range rng.Perm(n) {
			ids[i], perm[i] = uint64(i), uint64(j)
		}
		return ids, perm
	}
	p.ids, p.perm = seqPerm(p.g.NumNodes())
	p.small, p.sperm = seqPerm(in.div(smallKeys))
	p.enc = make([][]byte, p.g.NumNodes())
	for v := range p.enc {
		p.enc[v] = codec.EncodeNodeIDs(p.g.Neighbors(graph.NodeID(v)))
	}
	return p
}

// opStats is the cost of one probe per key.
type opStats struct {
	ns, allocs, bytes float64
	keys              int
}

// timeKeys calls op on consecutive blocks of keys, cycling through them until
// the probe's time box is spent (and, with fullPass, at least once through
// all of them); wrap runs each time the cycle restarts.  Heap allocation is
// read at the same boundary, so copy amplification is measured where the
// work happens.
func (p *prober) timeKeys(name string, keys []uint64, block int, fullPass bool, wrap func(), op func(ks []uint64) error) (opStats, error) {
	id := p.tr.begin("probe."+name, p.root, 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	done, at, calls := 0, 0, 0
	for {
		hi := min(at+block, len(keys))
		if err := op(keys[at:hi]); err != nil {
			return opStats{}, fmt.Errorf("probe %s: %w", name, err)
		}
		done += hi - at
		at = hi
		calls++
		if at == len(keys) {
			at = 0
		}
		if (calls%64 == 0 || at == 0) && time.Since(start) >= p.opt.probeBudget && (!fullPass || done >= len(keys)) {
			break
		}
		if at == 0 && wrap != nil {
			wrap()
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(done)
	st := opStats{
		ns:     float64(el.Nanoseconds()) / n,
		allocs: float64(after.Mallocs-before.Mallocs) / n,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		keys:   done,
	}
	p.tr.end(id, map[string]float64{"keys": n, "ns_per_key": st.ns, "allocs_per_key": st.allocs})
	return st, nil
}

func (p *prober) run() error {
	steps := []func() error{
		p.codec,
		func() error { return p.dhtEngine(dht.BackendMem, "dht.mem", dht.Options{}, true) },
		func() error { return p.dhtEngine(dht.BackendDisk, "dht.disk", dht.Options{}, true) },
		func() error { return p.dhtEngine(dht.BackendRPC, "dht.rpc", dht.Options{}, true) },
		func() error {
			armed := dht.Options{Replicate: true, Retry: &dht.RetryPolicy{MaxAttempts: 4}}
			if err := p.dhtEngine(dht.BackendMem, "dht.armed", armed, false); err != nil {
				return err
			}
			p.vals["dht.facade.armed_get_overhead_ns"] = p.vals["dht.armed.get_ns"] - p.vals["dht.mem.get_ns"]
			p.vals["dht.facade.armed_put_overhead_ns"] = p.vals["dht.armed.put_ns"] - p.vals["dht.mem.put_ns"]
			return nil
		},
		p.ampc,
		p.baseline,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	for _, name := range inputList {
		p.in.get(name)
		p.vals["gen.build_s."+name] = p.in.buildS[name]
	}
	return nil
}

func (p *prober) codec() error {
	lists := make([][]graph.NodeID, len(p.enc))
	for v := range lists {
		lists[v] = p.g.Neighbors(graph.NodeID(v))
	}
	idsPerList := float64(p.g.NumDirectedEdges()) / float64(len(lists))
	enc, err := p.timeKeys("codec.encode", p.ids, 1, true, nil, func(ks []uint64) error {
		sink = codec.EncodeNodeIDs(lists[ks[0]])
		return nil
	})
	if err != nil {
		return err
	}
	dec, err := p.timeKeys("codec.decode", p.ids, 1, true, nil, func(ks []uint64) error {
		_, err := codec.DecodeNodeIDs(p.enc[ks[0]])
		return err
	})
	if err != nil {
		return err
	}
	wg := p.in.get("WG1")
	wenc := make([][]byte, wg.NumNodes())
	for v := range wenc {
		ns, ws := wg.Neighbors(graph.NodeID(v)), wg.NeighborWeights(graph.NodeID(v))
		list := make([]codec.WeightedNeighbor, len(ns))
		for i := range ns {
			list[i] = codec.WeightedNeighbor{Node: ns[i], Weight: ws[i]}
		}
		wenc[v] = codec.EncodeWeightedNeighbors(list)
	}
	wdec, err := p.timeKeys("codec.decode_weighted", p.ids, 1, true, nil, func(ks []uint64) error {
		_, err := codec.DecodeWeightedNeighbors(wenc[ks[0]])
		return err
	})
	if err != nil {
		return err
	}
	p.vals["codec.encode_ns_per_id"] = enc.ns / idsPerList
	p.vals["codec.decode_ns_per_id"] = dec.ns / idsPerList
	p.vals["codec.decode_bytes_per_id"] = dec.bytes / idsPerList
	p.vals["codec.decode_allocs_per_list"] = dec.allocs
	p.vals["codec.decode_weighted_ns_per_nb"] = wdec.ns / idsPerList
	return nil
}

// sink keeps the compiler from dropping a probed call whose result is unused.
var sink []byte

// dhtEngine probes one storage engine through dht.NewStore and a machine
// View, the way ampc.Ctx reaches it.  With full unset only put and get run
// (the armed-but-idle façade comparison needs no more).
func (p *prober) dhtEngine(kind dht.BackendKind, prefix string, opts dht.Options, full bool) error {
	dir, err := os.MkdirTemp(p.opt.tmpRoot, "probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func(name string) (*dht.Store, error) {
		o := opts
		o.Backend, o.DiskDir = kind, filepath.Join(dir, name)
		if err := os.MkdirAll(o.DiskDir, 0o755); err != nil {
			return nil, err
		}
		return dht.NewStore(name, o)
	}
	adj, err := open("adj")
	if err != nil {
		return err
	}
	defer adj.Close()
	v := adj.View(0)
	put, err := p.timeKeys(prefix+".put", p.ids, 1, true, nil, func(ks []uint64) error {
		return v.Put(ks[0], p.enc[ks[0]])
	})
	if err != nil {
		return err
	}
	if err := adj.Freeze(); err != nil {
		return err
	}
	var valueBytes int
	get, err := p.timeKeys(prefix+".get", p.perm, 1, false, nil, func(ks []uint64) error {
		b, _, err := v.Get(ks[0])
		valueBytes += len(b)
		return err
	})
	if err != nil {
		return err
	}
	p.vals[prefix+".put_ns"] = put.ns
	p.vals[prefix+".get_ns"] = get.ns
	p.vals[prefix+".get_allocs"] = get.allocs
	p.vals[prefix+".get_bytes_per_value_byte"] = ratio(get.bytes*float64(get.keys), float64(valueBytes))
	if !full {
		return nil
	}
	bget, err := p.timeKeys(prefix+".batchget", p.perm, probeBlock, false, nil, func(ks []uint64) error {
		_, _, _, err := v.BatchGet(ks)
		return err
	})
	if err != nil {
		return err
	}
	if kind == dht.BackendMem {
		if err := p.cache(adj); err != nil {
			return err
		}
	}
	if kind == dht.BackendRPC {
		if m, ok := adj.MeasuredCostModel(); ok {
			p.vals["simtime.rpc_measured_read_rtt_us"] = micros(m.LookupLatency)
		}
	}

	small, err := open("small")
	if err != nil {
		return err
	}
	defer small.Close()
	sv := small.View(0)
	pairs := make([]dht.Pair, len(p.small))
	for i, k := range p.small {
		pairs[i] = dht.Pair{Key: k, Value: p.val8}
	}
	sput, err := p.timeKeys(prefix+".put_small", p.small, 1, false, nil, func(ks []uint64) error {
		return sv.Put(ks[0], p.val8)
	})
	if err != nil {
		return err
	}
	bput, err := p.timeKeys(prefix+".batchput", p.small, probeBlock, true, nil, func(ks []uint64) error {
		_, err := sv.BatchPut(pairs[ks[0] : int(ks[0])+len(ks)])
		return err
	})
	if err != nil {
		return err
	}
	if err := small.Freeze(); err != nil {
		return err
	}
	sget, err := p.timeKeys(prefix+".get_small", p.sperm, 1, false, nil, func(ks []uint64) error {
		_, _, err := sv.Get(ks[0])
		return err
	})
	if err != nil {
		return err
	}
	p.vals[prefix+".batchget_ns_per_key"] = bget.ns
	p.vals[prefix+".batchput_ns_per_key"] = bput.ns
	p.vals[prefix+".put_small_ns"] = sput.ns
	p.vals[prefix+".get_small_ns"] = sget.ns
	return nil
}

// cache probes dht.Cache in front of the frozen mem adjacency store: every
// read of a freshly invalidated cache misses, every read of a warm one hits.
func (p *prober) cache(adj *dht.Store) error {
	c := dht.NewCache(adj)
	get := func(ks []uint64) error {
		_, _, err := c.GetFrom(0, ks[0])
		return err
	}
	miss, err := p.timeKeys("dht.cache.miss", p.perm, 1, true, c.Invalidate, get)
	if err != nil {
		return err
	}
	c.Invalidate()
	for _, k := range p.perm { // warm
		if err := get([]uint64{k}); err != nil {
			return err
		}
	}
	hit, err := p.timeKeys("dht.cache.hit", p.perm, 1, false, nil, get)
	if err != nil {
		return err
	}
	p.vals["dht.cache.miss_ns"] = miss.ns
	p.vals["dht.cache.hit_ns"] = hit.ns
	return nil
}

// ampcOps is the number of operations each machine issues in one probe round.
func (p *prober) ampcOps() int {
	if p.opt.tiny {
		return 4_000
	}
	return 200_000
}

// timeRound runs round three times on rt and returns the median wall per
// operation, each machine issuing ops of them in parallel.
func (p *prober) timeRound(rt *ampc.Runtime, name string, ops int, round func() ampc.Round) (float64, error) {
	id := p.tr.begin("probe."+name, p.root, 0, 0)
	var ns []float64
	for i := 0; i < 3; i++ {
		r := round()
		r.Name = name
		start := time.Now()
		if err := rt.Run(r); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	p.tr.end(id, map[string]float64{"ops_per_machine": float64(ops), "ns_per_op": median(ns)})
	return median(ns), nil
}

// ampc probes a Session and Job running Rounds over a pre-filled frozen
// store: each of the two machines works through its half of the permutation.
func (p *prober) ampc() error {
	base := ampc.Config{Machines: machines, Threads: 1, Seed: p.opt.seed}
	ops := p.ampcOps()
	// keys[m] is machine m's share of the permutation, repeated to ops keys.
	keys := make([][]uint64, machines)
	for m := range keys {
		share := p.perm[m*len(p.perm)/machines : (m+1)*len(p.perm)/machines]
		for len(keys[m]) < ops {
			keys[m] = append(keys[m], share[:min(len(share), ops-len(keys[m]))]...)
		}
	}
	pairs := make([][]dht.Pair, machines)
	for m := range pairs {
		for _, k := range keys[m] {
			pairs[m] = append(pairs[m], dht.Pair{Key: k, Value: p.val8})
		}
	}
	// session opens a session and a job with the adjacency table written
	// through the runtime; the first read round freezes it.
	session := func(cfg ampc.Config) (*ampc.Session, *ampc.Runtime, *dht.Store, error) {
		s := ampc.NewSession(cfg)
		rt, err := s.NewJob()
		if err != nil {
			s.Close()
			return nil, nil, nil, err
		}
		st, err := s.OpenStore("probe-adj")
		if err == nil {
			err = rt.WriteTable("probe-fill", st, len(p.enc), 0, func(i int) []byte { return p.enc[i] })
		}
		if err != nil {
			s.Close()
			return nil, nil, nil, err
		}
		return s, rt, st, nil
	}
	perKey := func(body func(ctx *ampc.Ctx, ks []uint64) error) func(ctx *ampc.Ctx, item int) error {
		return func(ctx *ampc.Ctx, item int) error { return body(ctx, keys[item]) }
	}
	lookups := perKey(func(ctx *ampc.Ctx, ks []uint64) error {
		for _, k := range ks {
			if _, _, err := ctx.Lookup(k); err != nil {
				return err
			}
		}
		return nil
	})

	s, rt, adj, err := session(base)
	if err != nil {
		return err
	}
	defer s.Close()
	read := func(body func(*ampc.Ctx, int) error) func() ampc.Round {
		return func() ampc.Round { return ampc.Round{Items: machines, Read: adj, Body: body} }
	}
	noop := func(*ampc.Ctx, int) error { return nil }
	p.vals["ampc.round_overhead_us"], err = medianMicros(200, func(int) error {
		return rt.Run(ampc.Round{Name: "probe-empty", Items: machines, Body: noop})
	})
	if err != nil {
		return err
	}
	if p.vals["ampc.lookup_ns"], err = p.timeRound(rt, "ampc.lookup", ops, read(lookups)); err != nil {
		return err
	}
	p.vals["ampc.lookup_overhead_ns"] = p.vals["ampc.lookup_ns"] - p.vals["dht.mem.get_ns"]
	p.vals["ampc.readmany_ns_per_key"], err = p.timeRound(rt, "ampc.readmany", ops, read(perKey(func(ctx *ampc.Ctx, ks []uint64) error {
		for at := 0; at < len(ks); at += probeBlock {
			if _, _, err := ctx.ReadMany(ks[at:min(at+probeBlock, len(ks))]); err != nil {
				return err
			}
		}
		return nil
	})))
	if err != nil {
		return err
	}
	p.vals["ampc.stream_ns_per_key"], err = p.timeRound(rt, "ampc.stream", ops, func() ampc.Round {
		// One single-record iterator per key, built outside the timed round.
		its := make([][]ampc.Iterator, machines)
		for m := range its {
			its[m] = make([]ampc.Iterator, len(keys[m]))
			for i, k := range keys[m] {
				k, pulled := k, false
				its[m][i] = ampc.PullFunc(func() (uint64, bool) {
					if pulled {
						return 0, false
					}
					pulled = true
					return k, true
				})
			}
		}
		return ampc.Round{Items: machines, Read: adj, Body: func(ctx *ampc.Ctx, item int) error {
			return ctx.Stream(probeBlock, its[item], func(uint64, []byte, bool) error { return nil })
		}}
	})
	if err != nil {
		return err
	}
	write := func(s *ampc.Session, body func(ctx *ampc.Ctx, out *dht.Store, item int) error) func() ampc.Round {
		return func() ampc.Round {
			out, err := s.OpenStore("probe-out")
			return ampc.Round{Items: machines, Body: func(ctx *ampc.Ctx, item int) error {
				if err != nil {
					return err
				}
				return body(ctx, out, item)
			}}
		}
	}
	writes := func(ctx *ampc.Ctx, out *dht.Store, item int) error {
		for _, k := range keys[item] {
			if err := ctx.Write(out, k, p.val8); err != nil {
				return err
			}
		}
		return nil
	}
	if p.vals["ampc.write_ns"], err = p.timeRound(rt, "ampc.write", ops, write(s, writes)); err != nil {
		return err
	}
	p.vals["ampc.writemany_ns_per_key"], err = p.timeRound(rt, "ampc.writemany", ops, write(s, func(ctx *ampc.Ctx, out *dht.Store, item int) error {
		for at := 0; at < len(pairs[item]); at += probeBlock {
			if err := ctx.WriteMany(out, pairs[item][at:min(at+probeBlock, len(pairs[item]))]); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	p.vals["ampc.session.newjob_us"], err = medianMicros(500, func(int) error {
		j, err := s.NewJob()
		if err == nil {
			j.Close()
		}
		return err
	})
	if err != nil {
		return err
	}

	cached := base
	cached.EnableCache = true
	cs, crt, cadj, err := session(cached)
	if err != nil {
		return err
	}
	defer cs.Close()
	warm := ampc.Round{Name: "probe-warm", Items: machines, Read: cadj, Body: lookups}
	if err := crt.Run(warm); err != nil {
		return err
	}
	p.vals["ampc.lookup_cached_ns"], err = p.timeRound(crt, "ampc.lookup_cached", ops, func() ampc.Round {
		return ampc.Round{Items: machines, Read: cadj, Body: lookups}
	})
	if err != nil {
		return err
	}

	buffered := base
	buffered.FaultBudget = 4
	bs, brt, _, err := session(buffered)
	if err != nil {
		return err
	}
	defer bs.Close()
	if p.vals["ampc.write_buffered_ns"], err = p.timeRound(brt, "ampc.write_buffered", ops, write(bs, writes)); err != nil {
		return err
	}

	piped := base
	piped.Pipeline = true
	ps, prt, _, err := session(piped)
	if err != nil {
		return err
	}
	defer ps.Close()
	const seq = 16
	empty := make([]ampc.Round, seq)
	for i := range empty {
		empty[i] = ampc.Round{Name: fmt.Sprintf("probe-empty-%d", i), Items: machines, Body: noop}
	}
	segment, err := medianMicros(50, func(int) error { return prt.RunPipeline(empty) })
	if err != nil {
		return err
	}
	p.vals["ampc.pipeline_round_overhead_us"] = segment / seq
	// A 16-stage plan of table writes over four stores: span-declared
	// rounds whose conflicts the compile has to analyse.
	stages := make([]ampc.StagedRound, seq)
	var stores [4]*dht.Store
	for i := range stores {
		if stores[i], err = ps.OpenStore("probe-plan"); err != nil {
			return err
		}
	}
	for i := range stages {
		stages[i] = ampc.StagedRound{Phase: "probe", Round: ps.WriteTableRound(fmt.Sprintf("probe-plan-%d", i), stores[i%len(stores)], len(p.enc), 0, func(int) []byte { return p.val8 })}
	}
	p.vals["ampc.compileplan_cold_us"], _ = medianMicros(50, func(i int) error {
		ps.CompilePlan(fmt.Sprintf("probe-cold-%d", i), stages)
		return nil
	})
	p.vals["ampc.compileplan_cached_us"], _ = medianMicros(500, func(int) error {
		ps.CompilePlan("probe-cold-0", stages)
		return nil
	})
	return nil
}

// medianMicros times n calls of f one by one and returns the median in
// microseconds.
func medianMicros(n int, f func(i int) error) (float64, error) {
	us := make([]float64, n)
	for i := range us {
		start := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		us[i] = micros(time.Since(start))
	}
	return median(us), nil
}

// baseline times the MPC baselines once on G1 (msf on WG1) next to the same
// three AMPC algorithms under the plain configuration: the paper's headline
// ratio, measured in wall time.
func (p *prober) baseline() error {
	g, wg := p.in.get("G1"), p.in.get("WG1")
	timed := func(name string, f func() error) (float64, error) {
		id := p.tr.begin("probe."+name, p.root, 0, 0)
		start := time.Now()
		err := f()
		s := time.Since(start).Seconds()
		p.tr.end(id, nil)
		p.vals[name+".wall_s"] = s
		return s, err
	}
	pipeline := func() *mpc.Pipeline {
		return mpc.NewPipeline(mpc.Config{Workers: machines, Seed: p.opt.seed})
	}
	var mpcS, ampcS float64
	for _, b := range []struct {
		name string
		mpc  func() error
		ampc func() error
	}{
		{"baseline.mis",
			func() error {
				_, err := bmis.Run(g, pipeline(), bmis.Options{InMemoryThreshold: mpcThreshold})
				return err
			},
			func() error { _, err := mis.Run(g, baseConfig(p.opt.seed)); return err }},
		{"baseline.mm",
			func() error {
				_, err := bmm.Run(g, pipeline(), bmm.Options{InMemoryThreshold: mpcThreshold})
				return err
			},
			func() error { _, err := matching.Run(g, baseConfig(p.opt.seed)); return err }},
		{"baseline.msf",
			func() error {
				_, err := bmsf.Run(wg, pipeline(), bmsf.Options{InMemoryThreshold: mpcThreshold})
				return err
			},
			func() error { _, err := msf.Run(wg, baseConfig(p.opt.seed)); return err }},
	} {
		s, err := timed(b.name, b.mpc)
		if err != nil {
			return err
		}
		mpcS += s
		start := time.Now()
		if err := b.ampc(); err != nil {
			return err
		}
		ampcS += time.Since(start).Seconds()
	}
	p.vals["baseline.ampc_over_mpc_wall_x"] = ratio(mpcS, ampcS)
	return nil
}
