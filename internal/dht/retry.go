package dht

import (
	"errors"
	"fmt"
	"time"

	"ampcgraph/internal/rng"
)

// Store-level retries.
//
// A RetryPolicy makes the Store façade self-healing: transient backend
// errors (including every fault a FaultPlan injects short of a fatal one,
// and ErrUnavailable from a crashed unreplicated shard that will recover)
// are absorbed by capped exponential backoff with seeded jitter, bounded by
// a per-op deadline; slow batch reads are hedged with a duplicate request.
// The absorbed work is counted in Stats.{Retries, Hedges, DeadlineExceeded}.

// RetryPolicy configures the Store's retry behavior.  A nil policy on
// Options.Retry disables retries (every backend error surfaces immediately,
// the pre-policy behavior).
type RetryPolicy struct {
	// MaxAttempts bounds the total attempts per op (first try included).
	// Values below 2 mean a single attempt.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further retry
	// doubles it, capped at MaxBackoff.  Zero disables sleeping.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Deadline bounds the wall-clock time spent on one op across all its
	// attempts; when exceeded the op fails with the last error and
	// Stats.DeadlineExceeded is incremented.  Zero means no deadline.
	Deadline time.Duration
	// HedgeAfter, when positive, issues a duplicate of a batch read that has
	// not returned within this delay and takes whichever copy succeeds
	// first — the standard tail-latency hedge.  Reads of a frozen store are
	// idempotent, so the loser is discarded safely.
	HedgeAfter time.Duration
	// Seed drives the backoff jitter.
	Seed int64
}

// retryable reports whether err may be absorbed by another attempt.
// Injected fatal faults are the only non-retryable class: they model an op
// stuck past any budget, and the runtime recovers from them at the
// sub-round level instead.
func retryable(err error) bool {
	return !errors.Is(err, errInjectedFatal)
}

// withRetry runs op under the store's retry policy.
func (s *Store) withRetry(op func() error) error {
	err := op()
	if err == nil {
		return nil
	}
	return s.retryAfter(err, op)
}

// retryAfter is withRetry for a caller whose first attempt already failed
// with err: the single-key paths make that attempt themselves, so an
// operation that succeeds first time never builds the closure.
func (s *Store) retryAfter(err error, op func() error) error {
	if s.retry == nil {
		return err
	}
	p := s.retry
	start := time.Now()
	for attempt := 1; ; attempt++ {
		if !retryable(err) {
			return err
		}
		if p.MaxAttempts > 0 && attempt >= p.MaxAttempts {
			return err
		}
		if p.Deadline > 0 && time.Since(start) >= p.Deadline {
			s.deadlineExceeded.Add(1)
			return fmt.Errorf("dht: %s: retry deadline %v exceeded after %d attempts: %w",
				s.name, p.Deadline, attempt, err)
		}
		s.retries.Add(1)
		s.backoffSleep(attempt)
		if err = op(); err == nil {
			return nil
		}
	}
}

// backoffSleep sleeps the capped exponential backoff for the given retry
// attempt (1-based), jittered into [50%, 100%] by the policy seed.
func (s *Store) backoffSleep(attempt int) {
	p := s.retry
	if p.BaseBackoff <= 0 {
		return
	}
	d := p.BaseBackoff
	for i := 1; i < attempt && (p.MaxBackoff <= 0 || d < p.MaxBackoff); i++ {
		d *= 2
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	j := 0.5 + rng.UniformFloat(p.Seed, s.retrySeq.Add(1))/2
	time.Sleep(time.Duration(float64(d) * j))
}

// hedgedBatchGet is one BatchGet attempt with tail-latency hedging: when the
// primary request has not returned within HedgeAfter, a duplicate is issued
// and whichever copy succeeds first wins.  The duplicate is safe because the
// store being read is frozen (batch reads run against round inputs) and the
// fault injector keys its decisions by occurrence, so the hedge does not
// re-draw the primary's faults.
func (s *Store) hedgedBatchGet(idx int, keys []uint64) ([][]byte, []bool, int, error) {
	if s.retry == nil || s.retry.HedgeAfter <= 0 {
		return s.batchGetShard(idx, keys)
	}
	type result struct {
		vals      [][]byte
		oks       []bool
		failovers int
		err       error
	}
	ch := make(chan result, 2)
	launch := func() {
		vals, oks, failovers, err := s.batchGetShard(idx, keys)
		ch <- result{vals, oks, failovers, err}
	}
	go launch()
	timer := time.NewTimer(s.retry.HedgeAfter)
	defer timer.Stop()
	var first result
	select {
	case first = <-ch:
		return first.vals, first.oks, first.failovers, first.err
	case <-timer.C:
	}
	s.hedges.Add(1)
	go launch()
	first = <-ch
	if first.err == nil {
		return first.vals, first.oks, first.failovers, nil
	}
	// The faster copy failed; the slower one may still succeed (e.g. the
	// primary absorbed an injected fault while the hedge is clean).
	second := <-ch
	if second.err == nil {
		return second.vals, second.oks, second.failovers, nil
	}
	return first.vals, first.oks, first.failovers, first.err
}
