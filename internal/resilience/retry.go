// Package resilience is the repository's failure-handling toolkit: retry
// with exponential backoff and full jitter, a closed/open/half-open
// circuit breaker in the spirit of baseplate.go's breakerbp, and deadline
// budgets. internal/core uses it to survive transient backend faults
// mid-sweep; internal/service uses it to keep the advisor up (and
// degrading gracefully) when its sweep backend misbehaves.
//
// The package is deliberately free of policy: what counts as retryable is
// decided by the error itself through the Transienter interface (which
// faultinject.Error implements), clocks and sleeps are injectable so
// tests run in virtual time, and the zero value of every config means
// "off" or "sane default" rather than surprise behaviour.
package resilience

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Transienter is implemented by errors that may succeed when retried.
// faultinject.Error implements it; real backends would classify their
// driver error codes the same way.
type Transienter interface {
	Transient() bool
}

// IsTransient reports whether err is retryable: some error in its chain
// implements Transienter and answers true. Context errors are never
// transient — a cancelled caller must not be retried against.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t Transienter
	return errors.As(err, &t) && t.Transient()
}

// RetryPolicy configures Do. The zero value runs the operation exactly
// once (no retries), so callers that never set a policy lose nothing.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts (first try included). 0 and 1
	// both mean "one attempt, no retry".
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: the cap for attempt n is
	// BaseDelay * 2^(n-1), and the actual delay is drawn uniformly from
	// [0, cap] ("full jitter"). 0 retries immediately — the right setting
	// for modeled work, where a retry costs microseconds and the only
	// reason to wait is a real shared resource.
	BaseDelay time.Duration
	// MaxDelay caps the per-attempt backoff (0 = uncapped).
	MaxDelay time.Duration
	// Rand replaces the jitter source (tests); nil uses math/rand's
	// global source.
	Rand func() float64
	// Sleep replaces the delay function (tests); nil sleeps on a timer,
	// returning early with ctx's error when the context is done first.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Delay returns the full-jitter backoff before attempt n (1-based: Delay(1)
// precedes the first retry). Exposed for tests and for callers that manage
// their own loop.
func (p RetryPolicy) Delay(attempt int) time.Duration {
	if p.BaseDelay <= 0 || attempt < 1 {
		return 0
	}
	limit := p.BaseDelay << uint(attempt-1)
	if limit < p.BaseDelay {
		limit = 1<<63 - 1 // shift overflow: saturate, MaxDelay clamps below
	}
	if p.MaxDelay > 0 && limit > p.MaxDelay {
		limit = p.MaxDelay
	}
	r := p.Rand
	if r == nil {
		r = rand.Float64
	}
	return time.Duration(r() * float64(limit))
}

func (p RetryPolicy) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs fn, retrying transient failures (per IsTransient) up to the
// policy's attempt budget with full-jitter backoff between attempts. It
// returns nil on the first success, the last error when attempts are
// exhausted or the error is not retryable, and ctx's error when the
// context ends during a backoff. onRetry, when non-nil, observes each
// failed attempt that will be retried (attempt is 1-based) — core uses
// it to record per-size failure counts.
//
// The context is consulted only between attempts, never before the
// first: a caller that runs many cheap operations checks ctx once per
// unit of work itself (core checks once per sample), and a cancelled
// context still stops every retry, because the backoff returns its
// error.
func Do(ctx context.Context, p RetryPolicy, fn func() error, onRetry func(attempt int, err error)) error {
	err := fn()
	if err == nil {
		return nil
	}
	return Retry(ctx, p, err, fn, onRetry)
}

// Retry is Do's retry loop for a caller that made the first attempt
// itself, as a plain call, and saw it fail with err: that attempt counts
// toward MaxAttempts, and from there on Retry behaves exactly as Do
// would have. A hot loop calls its operation directly and pays for fn's
// closure only after a failure.
func Retry(ctx context.Context, p RetryPolicy, err error, fn func() error, onRetry func(attempt int, err error)) error {
	attempts := max(p.MaxAttempts, 1)
	for attempt := 1; ; attempt++ {
		if attempt >= attempts || !IsTransient(err) {
			return err
		}
		if onRetry != nil {
			onRetry(attempt, err)
		}
		if serr := p.sleep(ctx, p.Delay(attempt)); serr != nil {
			return serr
		}
		if err = fn(); err == nil {
			return nil
		}
	}
}
