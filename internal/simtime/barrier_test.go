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

func TestSchedulesHandleEmptyAndRaggedInput(t *testing.T) {
	if s := BarrierSchedule(nil); s.Makespan != 0 || s.Idle != 0 {
		t.Fatalf("empty barrier schedule %+v", s)
	}
	// Ragged rows: missing machines contribute zero busy time.
	busy := [][]time.Duration{{ms(4)}, {ms(2), ms(6)}, {}}
	b := BarrierSchedule(busy)
	if b.Makespan != ms(10) {
		t.Fatalf("ragged barrier makespan %v, want 10ms", b.Makespan)
	}
	// Machine 0 waits 10-6, machine 1 waits 10-6.
	if b.Idle != ms(8) {
		t.Fatalf("ragged barrier idle %v, want 8ms", b.Idle)
	}
}
