package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/simtime"
)

// perLayerValues computes the traced run's metrics: the workload's own counts
// and per-algorithm shares from the reps, then the layer probes, then the
// attribution estimates that combine the two.
func (m *measured) perLayerValues(opt options, cfg ampc.Config, tr *tracer, root int) (map[string]float64, error) {
	vals := map[string]float64{}
	last := m.reps[len(m.reps)-1]
	c := last.Store
	vals["dht.kv_reads"] = float64(c.Reads)
	vals["dht.kv_writes"] = float64(c.Writes)
	vals["dht.shard_visits"] = float64(c.ShardVisits)
	vals["dht.cache_hit_rate"] = ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses))
	vals["dht.remote_frac"] = ratio(float64(c.Remote), float64(c.Local+c.Remote))
	vals["dht.retries"] = float64(c.Retries)
	vals["dht.failovers"] = float64(c.Failovers)

	// core.<algo>: median job wall and the wall share of the phases that
	// shuffled or moved KV bytes; the remainder is host-side.
	walls, shuffle, kv := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var rounds, subroundRetries float64
	for _, r := range m.reps {
		for _, j := range r.Jobs {
			var sh, k float64
			for _, ph := range j.Stats.Phases {
				if ph.Shuffles > 0 {
					sh += ph.Wall.Seconds()
				}
				if ph.KVBytes > 0 {
					k += ph.Wall.Seconds()
				}
			}
			a := j.Spec.Algo
			walls[a] = append(walls[a], j.Wall.Seconds())
			shuffle[a] = append(shuffle[a], ratio(sh, j.Wall.Seconds()))
			kv[a] = append(kv[a], ratio(k, j.Wall.Seconds()))
		}
	}
	for _, j := range last.Jobs {
		rounds += float64(j.Stats.Rounds)
		subroundRetries += float64(j.Stats.SubroundRetries)
	}
	for a := range walls {
		vals["core."+a+".wall_s"] = median(walls[a])
		vals["core."+a+".shuffle_frac"] = median(shuffle[a])
		vals["core."+a+".kv_frac"] = median(kv[a])
	}
	vals["ampc.subround_retries"] = subroundRetries

	wall, tracedWall := median(m.walls(false)), median(m.walls(true))
	var sims []float64
	for _, r := range m.reps {
		sims = append(sims, r.sim().Seconds())
	}
	vals["simtime.model_over_wall"] = ratio(median(sims), wall)
	if tracedWall > 0 {
		vals["trace.overhead_frac"] = tracedWall/wall - 1
	}
	if m.w.Serving {
		n := float64(len(m.reps))
		if n > 1 {
			vals["ampc.session.rss_growth_mb_per_batch"] = (last.RSSMB - m.reps[0].RSSMB) / (n - 1)
		}
		vals["ampc.session.batch_wall_growth"] = ratio(last.Wall.Seconds(), m.reps[0].Wall.Seconds())
		vals["ampc.session.plan_cache_hit_rate"] = ratio(float64(m.planCache.Hits), float64(m.planCache.Hits+m.planCache.Misses))
		for _, a := range []string{"mis", "mm", "cc"} {
			vals["ampc.job."+a+"_p50_s"] = median(walls[a])
		}
	}

	if err := newProber(opt, m.in, tr, root, vals).run(); err != nil {
		return nil, err
	}

	// Attribution, as estimates: the rep's operation counts times the probes'
	// unit costs, spread over the machines that issue them in parallel, as a
	// share of the rep's wall.
	e := "dht.mem"
	if cfg.Backend != "" {
		e = "dht." + cfg.Backend
	}
	get, put := vals[e+".get_ns"], vals[e+".put_ns"]
	lookupOver := vals["ampc.lookup_overhead_ns"]
	writeOver := vals["ampc.write_ns"] - vals["dht.mem.put_small_ns"]
	if cfg.Batch {
		get, put = vals[e+".batchget_ns_per_key"], vals[e+".batchput_ns_per_key"]
		lookupOver = vals["ampc.readmany_ns_per_key"] - vals["dht.mem.batchget_ns_per_key"]
		writeOver = vals["ampc.writemany_ns_per_key"] - vals["dht.mem.batchput_ns_per_key"]
	}
	idBytes := float64(codec.SizeOfNodeList(1) - codec.SizeOfNodeList(0))
	share := func(ns float64) float64 { return ns / 1e9 / machines / wall }
	dhtFrac := share(float64(c.Reads)*get + float64(c.Writes)*put + float64(c.CacheHits)*vals["dht.cache.hit_ns"])
	codecFrac := share(float64(c.BytesRead)/idBytes*vals["codec.decode_ns_per_id"] +
		float64(c.KVBytes-c.BytesRead)/idBytes*vals["codec.encode_ns_per_id"])
	ampcFrac := share(float64(c.Reads+c.CacheHits)*math.Max(0, lookupOver)+float64(c.Writes)*math.Max(0, writeOver)) +
		rounds*vals["ampc.round_overhead_us"]/1e6/wall
	vals["attrib.dht_frac_est"] = dhtFrac
	vals["attrib.codec_frac_est"] = codecFrac
	vals["attrib.ampc_frac_est"] = ampcFrac
	vals["attrib.host_frac_est"] = math.Max(0, 1-dhtFrac-codecFrac-ampcFrac)
	return vals, nil
}

// reportLayers prints the per-layer metrics grouped by layer.
func reportLayers(out io.Writer, m *measured, vals map[string]float64) {
	counts := map[string]int{}
	for _, r := range m.reps {
		for _, j := range r.Jobs {
			counts[j.Spec.Algo]++
		}
	}
	var algosRun []string
	for a, n := range counts {
		algosRun = append(algosRun, fmt.Sprintf("%s=%d", a, n))
	}
	sort.Strings(algosRun)
	fmt.Fprintf(out, "per-layer metrics (traced run; 0 = not part of this workload); job samples %v\n", algosRun)
	fmt.Fprintf(out, "  reps: untraced %d, traced %d; attrib.* are estimates (counts x probe unit costs / wall_s)\n", len(m.walls(false)), len(m.walls(true)))
	fmt.Fprintf(out, "  simtime: TCP model lookup latency %.1f us beside the measured rpc read RTT\n", micros(simtime.TCP().LookupLatency))
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-40s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
}
