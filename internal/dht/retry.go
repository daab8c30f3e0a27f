package dht

import "errors"

// Store-level retries.
//
// A RetryPolicy makes the Store façade self-healing: a transient backend
// error (every fault a FaultPlan injects short of a fatal one, and
// ErrUnavailable from a crashed unreplicated shard that will recover) is
// absorbed by trying the op again at once, up to MaxAttempts tries in all.
// Nothing sleeps: the faults a retry absorbs fire on an identity's first
// occurrence, and a crash window drains by read visits, not by time.  The
// extra attempts are counted in Stats.Retries.

// RetryPolicy configures the Store's retry behavior.  A nil policy on
// Options.Retry disables retries (every backend error surfaces immediately,
// the pre-policy behavior).
type RetryPolicy struct {
	// MaxAttempts bounds the total attempts per op (first try included).
	// Values below 2 mean a single attempt.
	MaxAttempts int
}

// retryable reports whether err may be absorbed by another attempt.  Three
// classes are not: injected fatal faults, which model an op stuck past any
// budget (the runtime recovers from them at the sub-round level instead), and
// a disk or rpc engine that was closed, which no later attempt reopens.
func retryable(err error) bool {
	return !errors.Is(err, errInjectedFatal) && !errors.Is(err, errDiskClosed) && !errors.Is(err, errRPCClosed)
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
	for attempt := 1; retryable(err) && attempt < s.retry.MaxAttempts; attempt++ {
		s.retries.Add(1)
		if err = op(); err == nil {
			return nil
		}
	}
	return err
}
