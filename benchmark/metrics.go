package main

// metricDef names one metric, its unit, the direction that is better and —
// for end-to-end metrics — the share of the parent's median by which it may
// worsen before a change counts as a regression.  BENCHMARK.json carries the
// same tables; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.  The ISSUE's eighth metric, failed_frac, is
// 0 on a healthy tree and a gated metric may never be 0, so it travels as the
// result's attempted/failed counts (and is printed), not as a bounded metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"alloc_bytes_per_edge", "B/edge", "lower", 0.25},
	{"allocs_per_edge", "1/edge", "lower", 0.06},
	{"kv_bytes_per_edge", "B/edge", "lower", 0.02},
	{"sim_s", "s", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var (
	engines   = []string{"mem", "disk", "rpc"}
	algos     = []string{"mis", "mm", "msf", "cc", "cycle"}
	inputList = []string{"G2", "G1", "WG1", "C200", "C100"}
)

// perLayer lists every metric of the traced run, layer = module name.  Every
// traced run prints all of them; one that does not apply to the workload (an
// algorithm it does not run, a session metric outside serving_mem) reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	add("codec.encode_ns_per_id", "ns", "lower")
	add("codec.decode_ns_per_id", "ns", "lower")
	add("codec.decode_bytes_per_id", "B", "lower")
	add("codec.decode_allocs_per_list", "count", "lower")
	add("codec.decode_weighted_ns_per_nb", "ns", "lower")
	for _, e := range engines {
		add("dht."+e+".put_ns", "ns", "lower")
		add("dht."+e+".get_ns", "ns", "lower")
		add("dht."+e+".put_small_ns", "ns", "lower")
		add("dht."+e+".get_small_ns", "ns", "lower")
		add("dht."+e+".batchput_ns_per_key", "ns", "lower")
		add("dht."+e+".batchget_ns_per_key", "ns", "lower")
		add("dht."+e+".get_allocs", "count", "lower")
		add("dht."+e+".get_bytes_per_value_byte", "ratio", "lower")
	}
	add("dht.cache.hit_ns", "ns", "lower")
	add("dht.cache.miss_ns", "ns", "lower")
	add("dht.facade.armed_get_overhead_ns", "ns", "lower")
	add("dht.facade.armed_put_overhead_ns", "ns", "lower")
	add("dht.kv_reads", "count", "lower")
	add("dht.kv_writes", "count", "lower")
	add("dht.shard_visits", "count", "lower")
	add("dht.cache_hit_rate", "ratio", "higher")
	add("dht.remote_frac", "ratio", "lower")
	add("dht.retries", "count", "lower")
	add("dht.failovers", "count", "lower")
	add("ampc.round_overhead_us", "us", "lower")
	add("ampc.pipeline_round_overhead_us", "us", "lower")
	add("ampc.lookup_ns", "ns", "lower")
	add("ampc.lookup_cached_ns", "ns", "lower")
	add("ampc.lookup_overhead_ns", "ns", "lower")
	add("ampc.readmany_ns_per_key", "ns", "lower")
	add("ampc.stream_ns_per_key", "ns", "lower")
	add("ampc.write_ns", "ns", "lower")
	add("ampc.writemany_ns_per_key", "ns", "lower")
	add("ampc.write_buffered_ns", "ns", "lower")
	add("ampc.compileplan_cold_us", "us", "lower")
	add("ampc.compileplan_cached_us", "us", "lower")
	add("ampc.session.newjob_us", "us", "lower")
	add("ampc.session.rss_growth_mb_per_batch", "MB", "lower")
	add("ampc.session.batch_wall_growth", "ratio", "lower")
	add("ampc.session.plan_cache_hit_rate", "ratio", "higher")
	add("ampc.subround_retries", "count", "lower")
	add("ampc.job.mis_p50_s", "s", "lower")
	add("ampc.job.mm_p50_s", "s", "lower")
	add("ampc.job.cc_p50_s", "s", "lower")
	for _, a := range algos {
		add("core."+a+".wall_s", "s", "lower")
		add("core."+a+".shuffle_frac", "ratio", "lower")
		add("core."+a+".kv_frac", "ratio", "lower")
	}
	for _, in := range inputList {
		add("gen.build_s."+in, "s", "lower")
	}
	add("baseline.mis.wall_s", "s", "lower")
	add("baseline.mm.wall_s", "s", "lower")
	add("baseline.msf.wall_s", "s", "lower")
	add("baseline.ampc_over_mpc_wall_x", "ratio", "higher")
	add("simtime.model_over_wall", "ratio", "lower")
	add("simtime.rpc_measured_read_rtt_us", "us", "lower")
	add("attrib.dht_frac_est", "ratio", "lower")
	add("attrib.codec_frac_est", "ratio", "lower")
	add("attrib.ampc_frac_est", "ratio", "lower")
	add("attrib.host_frac_est", "ratio", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	return out
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fillMetrics builds the result's metric map from measured values, with the
// names and units of defs; a metric the run did not produce reads 0.
func fillMetrics(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}
