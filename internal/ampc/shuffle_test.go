package ampc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// shufflePools are the pool shapes every shuffle test runs on: the
// sequential case, the wall-clock benchmark's, and one with several threads
// per machine and more machines than a small input has chunks.
var shufflePools = []Config{
	{Machines: 1, Threads: 1},
	{Machines: 2, Threads: 1},
	{Machines: 3, Threads: 4},
}

func poolName(cfg Config) string { return fmt.Sprintf("%dx%d", cfg.Machines, cfg.Threads) }

// TestShuffleCoversItemsOnceAndAccountsAsAPhase: every item is handed to
// exactly one body call, the worker slot is never shared by two running
// calls, and the stage leaves behind one phase with one shuffle of the
// summed bytes — no round, no round overhead, nothing on the modeled clock
// but RecordShuffle's charge.  Run twice, it does the same again.
func TestShuffleCoversItemsOnceAndAccountsAsAPhase(t *testing.T) {
	for _, cfg := range shufflePools {
		for _, items := range []int{0, 1, shuffleChunk, 5*shuffleChunk + 17} {
			t.Run(fmt.Sprintf("%s/%d", poolName(cfg), items), func(t *testing.T) {
				rt := New(cfg)
				defer rt.Close()
				for pass := 1; pass <= 2; pass++ {
					seen := make([]int32, items)
					busy := make([]atomic.Bool, rt.PoolSize())
					err := rt.Shuffle("Stage", items, func(w, lo, hi int) (int64, error) {
						if busy[w].Swap(true) {
							return 0, fmt.Errorf("worker slot %d entered twice", w)
						}
						defer busy[w].Store(false)
						if lo >= hi || hi-lo > shuffleChunk {
							return 0, fmt.Errorf("chunk [%d, %d)", lo, hi)
						}
						for i := lo; i < hi; i++ {
							seen[i]++ // only this chunk's slots: no lock needed
						}
						return int64(3 * (hi - lo)), nil
					})
					if err != nil {
						t.Fatal(err)
					}
					for i, c := range seen {
						if c != 1 {
							t.Fatalf("pass %d: item %d handled %d times", pass, i, c)
						}
					}
					st := rt.Stats()
					model := rt.Config().Model
					wantSim := time.Duration(pass) * (model.ShuffleFixed + time.Duration(3*items)*model.ShufflePerByte)
					if st.Rounds != 0 || st.Shuffles != pass || st.ShuffleBytes != int64(pass*3*items) || st.Sim != wantSim {
						t.Fatalf("pass %d: rounds %d shuffles %d bytes %d sim %v, want 0 / %d / %d / %v",
							pass, st.Rounds, st.Shuffles, st.ShuffleBytes, st.Sim, pass, pass*3*items, wantSim)
					}
					ph := st.Phases[len(st.Phases)-1]
					if len(st.Phases) != pass || ph.Name != "Stage" || ph.Shuffles != 1 || ph.ShuffleBytes != int64(3*items) {
						t.Fatalf("pass %d: phases %+v", pass, st.Phases)
					}
				}
			})
		}
	}
}

// TestShuffleReportsLowestFailingChunk: every chunk runs even when some
// fail, and the error is the lowest failing chunk's however the threads
// interleave; the failed stage records its phase but no shuffle.
func TestShuffleReportsLowestFailingChunk(t *testing.T) {
	const items = 9 * shuffleChunk
	for _, cfg := range shufflePools {
		t.Run(poolName(cfg), func(t *testing.T) {
			rt := New(cfg)
			defer rt.Close()
			var ran atomic.Int32
			err := rt.Shuffle("Stage", items, func(_, lo, _ int) (int64, error) {
				ran.Add(1)
				if c := lo / shuffleChunk; c == 7 || c == 4 || c == 5 {
					return 0, fmt.Errorf("chunk %d broke", c)
				}
				return 1, nil
			})
			if err == nil || !strings.Contains(err.Error(), "chunk 4 broke") {
				t.Fatalf("error %v, want chunk 4's", err)
			}
			if ran.Load() != 9 {
				t.Fatalf("%d chunks ran, want all 9", ran.Load())
			}
			if st := rt.Stats(); st.Shuffles != 0 || len(st.Phases) != 1 {
				t.Fatalf("failed stage: shuffles %d phases %d, want 0 / 1", st.Shuffles, len(st.Phases))
			}
		})
	}
}

// TestShuffleCancellationAndClose: a job cancelled before the stage never
// calls a body; cancelled during it, the threads stop claiming chunks, the
// pool drains and the context error comes back; a closed job gets ErrClosed.
// The session serves the next job's shuffle and round each time.
func TestShuffleCancellationAndClose(t *testing.T) {
	const items = 64 * shuffleChunk
	for _, cfg := range shufflePools {
		t.Run(poolName(cfg), func(t *testing.T) {
			s := NewSession(cfg)
			defer s.Close()
			usable := func(when string) {
				t.Helper()
				rt, err := s.NewJob()
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				defer rt.Close()
				var n atomic.Int64
				if err := rt.Shuffle("Next", items, func(_, lo, hi int) (int64, error) {
					n.Add(int64(hi - lo))
					return 0, nil
				}); err != nil || n.Load() != items {
					t.Fatalf("%s: next job's shuffle: %v, %d of %d items", when, err, n.Load(), items)
				}
				if err := rt.Run(Round{Name: "next", Items: 8, Body: func(*Ctx, int) error { return nil }}); err != nil {
					t.Fatalf("%s: next job's round: %v", when, err)
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			rt, err := s.NewJobContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			err = rt.Shuffle("Before", items, func(int, int, int) (int64, error) {
				t.Error("body ran on a cancelled job")
				return 0, nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled before: %v, want context.Canceled", err)
			}
			rt.Close()
			usable("after cancel-before")

			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			rt, err = s.NewJobContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// The second body cancels and then sets cancelled; late counts the
			// bodies that start after that.
			var chunks, late atomic.Int32
			var cancelled atomic.Bool
			err = rt.Shuffle("During", items, func(int, int, int) (int64, error) {
				if cancelled.Load() {
					late.Add(1)
				}
				if chunks.Add(1) == 2 {
					cancel()
					cancelled.Store(true)
				}
				return 0, nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled during: %v, want context.Canceled", err)
			}
			// A thread can be between its context check and its body when the
			// cancel returns, but only once: it claims no other chunk.
			if got, most := int(late.Load()), rt.PoolSize(); got > most {
				t.Fatalf("%d chunks started after the cancel returned, want at most %d", got, most)
			}
			if st := rt.Stats(); st.Shuffles != 0 {
				t.Fatalf("cancelled stage recorded %d shuffles", st.Shuffles)
			}
			rt.Close()
			usable("after cancel-during")

			rt, err = s.NewJob()
			if err != nil {
				t.Fatal(err)
			}
			rt.Close()
			err = rt.Shuffle("Closed", items, func(int, int, int) (int64, error) {
				t.Error("body ran on a closed job")
				return 0, nil
			})
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("closed job: %v, want ErrClosed", err)
			}
			usable("after closed job")
		})
	}
	s := NewSession(Config{Machines: 2})
	rt, err := s.NewJob()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := rt.Shuffle("Closed", 1, func(int, int, int) (int64, error) { return 0, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed session: %v, want ErrClosed", err)
	}
}
