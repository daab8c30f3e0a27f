package simtime

import (
	"testing"
	"time"
)

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

func TestBarrierScheduleSumsRoundMaxima(t *testing.T) {
	busy := [][]time.Duration{
		{ms(10), ms(2), ms(2)},
		{ms(1), ms(8), ms(1)},
	}
	s := BarrierSchedule(busy)
	if s.Makespan != ms(18) {
		t.Fatalf("makespan %v, want 18ms", s.Makespan)
	}
	// Idle: machine 0 waits 7, machine 1 waits 8, machine 2 waits 15.
	if s.Idle != ms(7+8+15) {
		t.Fatalf("idle %v, want 30ms", s.Idle)
	}
}

// allOf returns sub-round deps naming every machine of round i.
func allOf(i, machines int) []SubDep {
	deps := make([]SubDep, machines)
	for m := range deps {
		deps[m] = SubDep{Round: i, Machine: m}
	}
	return deps
}

func TestSubroundScheduleDegeneratesToBarrier(t *testing.T) {
	busy := [][]time.Duration{
		{ms(10), ms(2)},
		{ms(3), ms(9)},
		{ms(4), ms(4)},
	}
	// Whole-round deps on the predecessor reproduce the barrier exactly.
	full := [][][]SubDep{
		{nil, nil},
		{allOf(0, 2), allOf(0, 2)},
		{allOf(1, 2), allOf(1, 2)},
	}
	if b, s := BarrierSchedule(busy), SubroundSchedule(busy, full); s != b {
		t.Fatalf("whole-round sub deps %+v != barrier %+v", s, b)
	}
	// So does a single round, whatever its deps: the slowest machine.
	if b, s := BarrierSchedule(busy[:1]), SubroundSchedule(busy[:1], nil); s != b || s.Makespan != ms(10) {
		t.Fatalf("one-round schedule %+v != barrier %+v", s, b)
	}
	// Whole-round deps on round 0 only: round 1 is independent filler, round
	// 2 waits for the round-0 straggler.  Machine 0 runs back to back (10,
	// 13, 17); machine 1 runs 2, 11, and is past the gate at 10 already: 15.
	sparse := [][][]SubDep{
		{nil, nil},
		{nil, nil},
		{allOf(0, 2), allOf(0, 2)},
	}
	if s := SubroundSchedule(busy, sparse); s.Makespan != ms(17) {
		t.Fatalf("round-level sub deps makespan %v, want 17ms", s.Makespan)
	}
}

func TestSubroundScheduleOverlapsDisjointRanges(t *testing.T) {
	// Round 0 writes per-machine ranges; round 1 reads only its own range.
	// Machine 1's round-1 share gates on its OWN round-0 share only, so it
	// flows past machine 0's straggling write.
	busy := [][]time.Duration{
		{ms(10), ms(1)},
		{ms(2), ms(7)},
	}
	ranged := [][][]SubDep{
		{nil, nil},
		{{{Round: 0, Machine: 0}}, {{Round: 0, Machine: 1}}},
	}
	s := SubroundSchedule(busy, ranged)
	// Machine 0: 10 then 2 -> 12.  Machine 1: 1 then 7 -> 8.
	if s.Makespan != ms(12) {
		t.Fatalf("ranged makespan %v, want 12ms", s.Makespan)
	}
	// The same busy matrix under whole-store deps gates round 1 on the
	// straggler: machine 1 waits until t=10, finishing at 17.
	whole := [][][]SubDep{
		{nil, nil},
		{allOf(0, 2), allOf(0, 2)},
	}
	w := SubroundSchedule(busy, whole)
	if w.Makespan != ms(17) {
		t.Fatalf("whole-store makespan %v, want 17ms", w.Makespan)
	}
	if s.Idle >= w.Idle {
		t.Fatalf("range gating did not reduce idle: %v -> %v", w.Idle, s.Idle)
	}
}

func TestSubroundScheduleCrossMachineDep(t *testing.T) {
	// Machine 1's round-1 share waits for machine 0's round-0 share
	// (e.g. it reads a range machine 0 wrote), but not vice versa.
	busy := [][]time.Duration{
		{ms(6), ms(1)},
		{ms(1), ms(2)},
	}
	deps := [][][]SubDep{
		{nil, nil},
		{nil, {{Round: 0, Machine: 0}}},
	}
	s := SubroundSchedule(busy, deps)
	// Machine 0: 6+1=7.  Machine 1: waits to t=6, then 2 -> 8.
	if s.Makespan != ms(8) {
		t.Fatalf("makespan %v, want 8ms", s.Makespan)
	}
	// Out-of-range deps are ignored, not crash.
	bad := [][][]SubDep{
		{nil, nil},
		{{{Round: 5, Machine: 0}, {Round: -1, Machine: 9}}, nil},
	}
	if s := SubroundSchedule(busy, bad); s.Makespan != ms(7) {
		t.Fatalf("out-of-range deps makespan %v, want 7ms", s.Makespan)
	}
}

func TestSchedulesHandleEmptyAndRaggedInput(t *testing.T) {
	if s := BarrierSchedule(nil); s.Makespan != 0 || s.Idle != 0 {
		t.Fatalf("empty barrier schedule %+v", s)
	}
	if s := SubroundSchedule(nil, nil); s.Makespan != 0 || s.Idle != 0 {
		t.Fatalf("empty sub-round schedule %+v", s)
	}
	// Ragged rows: missing machines contribute zero busy time.
	busy := [][]time.Duration{{ms(4)}, {ms(2), ms(6)}}
	b := BarrierSchedule(busy)
	if b.Makespan != ms(10) {
		t.Fatalf("ragged barrier makespan %v, want 10ms", b.Makespan)
	}
	p := SubroundSchedule(busy, nil)
	// Machine 1 skips round 0 (no work) and runs round 1 immediately.
	if p.Makespan != ms(6) {
		t.Fatalf("ragged sub-round makespan %v, want 6ms", p.Makespan)
	}
}
