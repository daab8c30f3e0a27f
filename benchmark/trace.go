package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer.  Parent is the index of the span that caused it (-1 for a root).
// Counted spans carry a duration the program reported (ampc.Stats.Phases) but
// no start time of their own: they are laid end to end from their parent's
// start so a viewer can show them, and count against the parent's self time by
// duration.
type span struct {
	Name     string
	Start    time.Duration // since the tracer was created
	End      time.Duration
	Parent   int
	Workload string
	Rep      int
	Client   int
	Counted  bool
	Counts   map[string]float64
}

// tracer keeps spans in memory until the benchmark ends.  A nil *tracer
// records nothing, which is how untraced reps run the same code.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, rep, client int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: time.Since(t.t0), End: -1,
		Parent: parent, Workload: t.workload, Rep: rep, Client: client,
	})
	return len(t.spans) - 1
}

// end closes span id and attaches the counts measured at the same boundary.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.t0)
	t.spans[id].Counts = counts
}

// counted attaches child spans that have durations but no start times,
// laying them end to end from the parent's start.
func (t *tracer) counted(parent int, names []string, durs []time.Duration, counts []map[string]float64) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	at := p.Start
	for i, name := range names {
		t.spans = append(t.spans, span{
			Name: name, Start: at, End: at + durs[i], Parent: parent,
			Workload: p.Workload, Rep: p.Rep, Client: p.Client,
			Counted: true, Counts: counts[i],
		})
		at += durs[i]
	}
}

// selfTime is the span's duration minus the part of it its children cover: the
// union of the child intervals for timed children, the summed durations for
// counted ones.
func selfTime(p span, kids []span) time.Duration {
	var counted time.Duration
	var timed []span
	for _, k := range kids {
		if k.Counted {
			counted += k.End - k.Start
		} else {
			timed = append(timed, k)
		}
	}
	sort.Slice(timed, func(i, j int) bool { return timed[i].Start < timed[j].Start })
	var covered time.Duration
	at := p.Start
	for _, k := range timed {
		lo, hi := k.Start, k.End
		if lo < at {
			lo = at
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			covered += hi - lo
			at = hi
		}
	}
	self := p.End - p.Start - covered - counted
	if self < 0 {
		self = 0
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format
// (chrome://tracing, Perfetto); times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	events := make([]chromeEvent, 0, len(t.spans))
	for id, s := range t.spans {
		if s.End < 0 {
			continue
		}
		args := map[string]any{
			"id": id, "parent": s.Parent, "workload": s.Workload, "rep": s.Rep,
			"self_us": micros(selfTime(s, kids[id])),
		}
		if s.Counted {
			args["counted"] = true
		}
		for k, v := range s.Counts {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts:  micros(s.Start),
			Dur: micros(s.End - s.Start),
			Pid: 1, Tid: s.Client, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
