package main

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/core/connectivity"
	"ampcgraph/internal/core/matching"
	"ampcgraph/internal/core/mis"
)

// options are the knobs of one single-workload run.
type options struct {
	seed        int64
	tiny        bool
	seconds     float64 // length of the timed region
	reps        int     // > 0 fixes the number of timed reps instead
	setupPasses int     // set-up is repeated and its median reported
	tmpRoot     string  // parent of the disk engine's temporary directory
	traced      bool
	traceOut    string        // Chrome trace-event file of a traced run
	probeBudget time.Duration // time box of one layer probe
	log         io.Writer     // human-readable report
}

// minReps is the fewest timed reps a time-boxed run measures.
const minReps = 3

// env is one prepared workload: inputs generated, substrate built.
type env struct {
	w       *workload
	in      *inputSet
	cfg     ampc.Config
	diskDir string
	// Serving substrate: one warm session with the resident mis/mm stores.
	sess *ampc.Session
	mis  *mis.Shared
	mm   *matching.Shared
}

func setUp(w *workload, opt options) (*env, error) {
	e := &env{w: w, in: newInputSet(opt.seed, opt.tiny)}
	for _, j := range w.Jobs {
		e.in.get(j.Input)
	}
	if err := os.MkdirAll(opt.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.tmpRoot, w.Name+"-*")
	if err != nil {
		return nil, err
	}
	e.diskDir = dir
	e.cfg = w.Config(opt.seed, dir)
	if w.Serving {
		e.sess = ampc.NewSession(e.cfg)
		prep, err := e.sess.NewJob()
		if err != nil {
			e.close()
			return nil, err
		}
		defer prep.Close()
		g := e.in.get("G1")
		if e.mis, err = mis.NewShared(prep, g); err == nil {
			e.mm, err = matching.NewShared(prep, g)
		}
		if err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *env) close() {
	if e.sess != nil {
		e.sess.Close()
	}
	os.RemoveAll(e.diskDir)
}

// counts are the store-derived counters of ampc.Stats the benchmark reports.
type counts struct {
	KVBytes, BytesRead, Reads, Writes, ShardVisits int64
	CacheHits, CacheMisses, Local, Remote          int64
	Retries, Failovers                             int64
}

func storeCounts(st ampc.Stats) counts {
	return counts{
		KVBytes: st.KVBytesTotal, BytesRead: st.KVBytesRead, Reads: st.KVReads, Writes: st.KVWrites,
		ShardVisits: st.KVShardVisits, CacheHits: st.CacheHits, CacheMisses: st.CacheMisses,
		Local: st.LocalReads, Remote: st.RemoteReads, Retries: st.KVRetries, Failovers: st.KVFailovers,
	}
}

func (a counts) add(b counts, sign int64) counts {
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(av.Field(i).Int() + sign*bv.Field(i).Int())
	}
	return a
}

// jobRun is one executed job; repRun one pass over the workload's jobs.
type jobRun struct {
	Spec  jobSpec
	Out   any
	Stats ampc.Stats
	Wall  time.Duration
	Err   error
}

type repRun struct {
	Wall   time.Duration
	Jobs   []jobRun
	Store  counts // store-derived counters of the rep
	RSSMB  float64
	Traced bool
}

func (r repRun) sim() (d time.Duration) {
	for _, j := range r.Jobs {
		d += j.Stats.Sim
	}
	return d
}

// rep runs one pass over the workload's jobs.  tr is nil for untraced reps.
func (e *env) rep(tr *tracer, parent, idx int) repRun {
	id := tr.begin("rep", parent, idx, 0)
	var r repRun
	if e.w.Serving {
		r = e.servingRep(tr, id, idx)
	} else {
		start := time.Now()
		for _, j := range e.w.Jobs {
			jr := e.runJob(j, nil, tr, id, idx, 0)
			r.Store = r.Store.add(storeCounts(jr.Stats), 1)
			r.Jobs = append(r.Jobs, jr)
		}
		r.Wall = time.Since(start)
	}
	r.RSSMB, r.Traced = procStatusMB("VmRSS"), tr != nil
	tr.end(id, map[string]float64{"kv_bytes": float64(r.Store.KVBytes), "kv_reads": float64(r.Store.Reads), "kv_writes": float64(r.Store.Writes)})
	return r
}

// servingRep drains the job queue with two closed-loop clients on the warm
// session; the makespan is the rep's wall.  Store counters are the session's
// delta over the batch (a job's Stats aggregates every store of its session).
func (e *env) servingRep(tr *tracer, parent, idx int) repRun {
	before := e.sessionCounts()
	queue := make(chan int, len(e.w.Jobs))
	for i := range e.w.Jobs {
		queue <- i
	}
	close(queue)
	r := repRun{Jobs: make([]jobRun, len(e.w.Jobs))}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < maxClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := range queue {
				r.Jobs[i] = e.runJob(e.w.Jobs[i], e.sess, tr, parent, idx, client)
			}
		}(c)
	}
	wg.Wait()
	r.Wall = time.Since(start)
	r.Store = e.sessionCounts().add(before, -1)
	return r
}

func (e *env) sessionCounts() counts {
	rt, err := e.sess.NewJob()
	if err != nil {
		return counts{}
	}
	defer rt.Close()
	return storeCounts(rt.Stats())
}

// runJob executes one job — one-shot when sess is nil, as a job of the warm
// session otherwise — inside a core.<algo> span whose counted children are the
// phases the job reported.
func (e *env) runJob(j jobSpec, sess *ampc.Session, tr *tracer, parent, rep, client int) jobRun {
	id := tr.begin("core."+j.Algo, parent, rep, client)
	jr := jobRun{Spec: j}
	start := time.Now()
	if sess == nil {
		jr.Out, jr.Stats, jr.Err = runOneShot(j, e.in.get(j.Input), e.cfg)
	} else {
		jr.Out, jr.Stats, jr.Err = e.runOnSession(j, sess)
	}
	jr.Wall = time.Since(start)
	tr.end(id, map[string]float64{"rounds": float64(jr.Stats.Rounds), "shuffles": float64(jr.Stats.Shuffles), "sim_s": jr.Stats.Sim.Seconds()})
	if tr != nil {
		var names []string
		var durs []time.Duration
		var cs []map[string]float64
		for _, p := range jr.Stats.Phases {
			names = append(names, "phase."+p.Name)
			durs = append(durs, p.Wall)
			cs = append(cs, map[string]float64{"shuffles": float64(p.Shuffles), "shuffle_bytes": float64(p.ShuffleBytes), "kv_bytes": float64(p.KVBytes)})
		}
		tr.counted(id, names, durs, cs)
	}
	return jr
}

func (e *env) runOnSession(j jobSpec, sess *ampc.Session) (any, ampc.Stats, error) {
	rt, err := sess.NewJob()
	if err != nil {
		return nil, ampc.Stats{}, err
	}
	defer rt.Close()
	switch j.Algo {
	case "mis":
		r, err := e.mis.Run(rt)
		if err != nil {
			return nil, ampc.Stats{}, err
		}
		return r.InMIS, r.Stats, nil
	case "mm":
		r, err := e.mm.Run(rt)
		if err != nil {
			return nil, ampc.Stats{}, err
		}
		return r.Matching.Mate, r.Stats, nil
	case "cc":
		r, err := connectivity.RunOn(rt, e.in.get(j.Input))
		if err != nil {
			return nil, ampc.Stats{}, err
		}
		return r.Components, r.Stats, nil
	}
	return nil, ampc.Stats{}, fmt.Errorf("benchmark: %q is not a serving query", j.Algo)
}

// procStatusMB reads a kB field (VmHWM, VmRSS) of /proc/self/status as MB;
// 0 where the file does not exist.
func procStatusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// measured is everything one single-workload run produced.
type measured struct {
	w         *workload
	in        *inputSet
	setupS    []float64
	reps      []repRun // timed, in order; a traced run alternates untraced and traced
	alloc     uint64   // TotalAlloc delta over the timed reps
	mallocs   uint64
	peakRSS   float64
	attempted int
	failed    int
	planCache ampc.PlanCacheStats
}

// measure sets the workload up (several times, so set-up time has a median),
// runs the timed reps and verifies every output afterwards.
func measure(w *workload, opt options, tr *tracer, root int) (*measured, error) {
	m := &measured{w: w}
	var e *env
	for pass := 0; pass < opt.setupPasses; pass++ {
		if e != nil {
			e.close()
		}
		id := tr.begin("setup", root, pass, 0)
		start := time.Now()
		var err error
		if e, err = setUp(w, opt); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm := e.rep(nil, -1, -1) // the untimed warm-up rep
		m.setupS = append(m.setupS, time.Since(start).Seconds())
		tr.end(id, nil)
		for _, j := range warm.Jobs {
			if j.Err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up %s: %w", j.Spec.Algo, j.Err)
			}
		}
	}
	defer e.close()
	m.in = e.in

	// Collect and hand the set-up's garbage back to the OS, then restart the
	// kernel's high-water mark, so peak RSS is the peak of the timed reps over
	// the live heap.  Where /proc/self/clear_refs cannot be written the mark
	// keeps the set-up's peak.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if opt.reps > 0 && len(m.reps) >= opt.reps {
			break
		}
		if opt.reps <= 0 && len(m.reps) >= minReps && !time.Now().Before(deadline) {
			break
		}
		// A traced run alternates untraced and traced reps, so the two
		// medians it compares share the same process state.
		if opt.traced && i%2 == 1 {
			m.reps = append(m.reps, e.rep(tr, root, i))
		} else {
			m.reps = append(m.reps, e.rep(nil, -1, i))
		}
	}
	runtime.ReadMemStats(&after)
	m.alloc, m.mallocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	m.peakRSS = procStatusMB("VmHWM")
	if e.sess != nil {
		m.planCache = e.sess.PlanCacheStats()
	}

	id := tr.begin("verify", root, 0, 0)
	check := newChecker(e.in, !reflect.DeepEqual(e.cfg, baseConfig(opt.seed)))
	for _, r := range m.reps {
		for _, j := range r.Jobs {
			m.attempted++
			if j.Err != nil || !check.ok(j.Spec, j.Out) {
				m.failed++
			}
		}
	}
	tr.end(id, map[string]float64{"attempted": float64(m.attempted), "failed": float64(m.failed)})
	return m, nil
}

// endToEndValues computes the end-to-end metrics from the untraced reps.
func (m *measured) endToEndValues() map[string]float64 {
	edges := float64(m.in.edges(m.w))
	n := float64(len(m.reps))
	var kv, sim []float64
	for _, r := range m.reps {
		kv = append(kv, float64(r.Store.KVBytes))
		sim = append(sim, r.sim().Seconds())
	}
	walls := m.walls(false)
	return map[string]float64{
		"setup_s":              median(m.setupS),
		"wall_s":               median(walls),
		"alloc_bytes_per_edge": ratio(float64(m.alloc), n*edges),
		"allocs_per_edge":      ratio(float64(m.mallocs), n*edges),
		"kv_bytes_per_edge":    ratio(median(kv), edges),
		"sim_s":                median(sim),
		"peak_rss_mb":          m.peakRSS,
	}
}

// walls returns the rep walls of the traced or the untraced timed reps.
func (m *measured) walls(traced bool) []float64 {
	var out []float64
	for _, r := range m.reps {
		if r.Traced == traced {
			out = append(out, r.Wall.Seconds())
		}
	}
	return out
}

func (m *measured) report(opt options, vals map[string]float64) {
	out := opt.log
	walls := m.walls(false)
	lo, hi := minMax(walls)
	scale := "full"
	if opt.tiny {
		scale = "tiny"
	}
	fmt.Fprintf(out, "workload %s  seed=%d scale=%s edges/rep=%d jobs/rep=%d\n", m.w.Name, opt.seed, scale, m.in.edges(m.w), len(m.w.Jobs))
	fmt.Fprintf(out, "  timed reps R=%d: wall_s median %.4f min %.4f max %.4f (R is too small for an upper percentile)\n", len(walls), median(walls), lo, hi)
	fmt.Fprintf(out, "  set-up passes %d: %.3f s each (median reported)\n", len(m.setupS), m.setupS)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-24s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	fmt.Fprintf(out, "  %-24s %14.6g ratio (%d failed / %d attempted)\n", "failed_frac", ratio(float64(m.failed), float64(m.attempted)), m.failed, m.attempted)
}
