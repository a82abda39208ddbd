package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// transientErr is a retryable failure for tests.
type transientErr struct{ n int }

func (e *transientErr) Error() string   { return fmt.Sprintf("transient %d", e.n) }
func (e *transientErr) Transient() bool { return true }

// hardErr is a permanent failure for tests.
type hardErr struct{}

func (e *hardErr) Error() string   { return "hard" }
func (e *hardErr) Transient() bool { return false }

func TestIsTransient(t *testing.T) {
	if !IsTransient(&transientErr{}) {
		t.Error("transientErr not classified transient")
	}
	if IsTransient(&hardErr{}) {
		t.Error("hardErr classified transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error classified transient")
	}
	if IsTransient(nil) {
		t.Error("nil classified transient")
	}
	if IsTransient(context.Canceled) || IsTransient(context.DeadlineExceeded) {
		t.Error("context errors classified transient")
	}
	// A transient error wrapped in context cancellation must not retry:
	// the caller is gone.
	wrapped := fmt.Errorf("site died: %w after %w", &transientErr{}, context.Canceled)
	if IsTransient(wrapped) {
		t.Error("cancellation-wrapped error classified transient")
	}
}

// TestDoRetriesTransient: a flaky operation that succeeds on attempt 3
// retries twice, reports each retry, then succeeds.
func TestDoRetriesTransient(t *testing.T) {
	calls := 0
	var retried []int
	err := Do(context.Background(), RetryPolicy{MaxAttempts: 5},
		func() error {
			calls++
			if calls < 3 {
				return &transientErr{n: calls}
			}
			return nil
		},
		func(attempt int, err error) { retried = append(retried, attempt) })
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 || len(retried) != 2 || retried[0] != 1 || retried[1] != 2 {
		t.Fatalf("calls=%d retried=%v, want 3 calls, retries [1 2]", calls, retried)
	}
}

// TestDoExhaustsBudget: a persistently transient failure surfaces after
// MaxAttempts tries.
func TestDoExhaustsBudget(t *testing.T) {
	calls := 0
	err := Do(context.Background(), RetryPolicy{MaxAttempts: 4},
		func() error { calls++; return &transientErr{n: calls} }, nil)
	var te *transientErr
	if !errors.As(err, &te) || te.n != 4 {
		t.Fatalf("want the 4th transient error, got %v", err)
	}
	if calls != 4 {
		t.Fatalf("calls=%d, want 4", calls)
	}
}

// TestDoHardFailsFast: non-transient errors are never retried.
func TestDoHardFailsFast(t *testing.T) {
	calls := 0
	err := Do(context.Background(), RetryPolicy{MaxAttempts: 10},
		func() error { calls++; return &hardErr{} }, nil)
	if calls != 1 {
		t.Fatalf("hard error retried: %d calls", calls)
	}
	var he *hardErr
	if !errors.As(err, &he) {
		t.Fatalf("got %v", err)
	}
}

// TestDoZeroPolicy: the zero value runs exactly once.
func TestDoZeroPolicy(t *testing.T) {
	calls := 0
	_ = Do(context.Background(), RetryPolicy{},
		func() error { calls++; return &transientErr{} }, nil)
	if calls != 1 {
		t.Fatalf("zero policy ran %d times", calls)
	}
}

// TestDoRespectsContext: cancellation between attempts stops the loop
// with the context's error.
func TestDoRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, RetryPolicy{MaxAttempts: 100, BaseDelay: time.Hour,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // the world ends while we back off
			return ctx.Err()
		}},
		func() error { calls++; return &transientErr{} }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls=%d, want 1", calls)
	}
}

// TestDelayFullJitter: the backoff cap doubles per attempt, honours
// MaxDelay, and the jitter draw spans [0, cap).
func TestDelayFullJitter(t *testing.T) {
	p := RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		Rand:        func() float64 { return 1 }, // draw the cap itself
	}
	want := []time.Duration{
		10 * time.Millisecond, // attempt 1: base
		20 * time.Millisecond, // attempt 2: doubled
		40 * time.Millisecond, // attempt 3: doubled again
		40 * time.Millisecond, // attempt 4: clamped by MaxDelay
	}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	p.Rand = func() float64 { return 0 }
	if got := p.Delay(3); got != 0 {
		t.Errorf("full jitter must reach 0, got %v", got)
	}
	if got := (RetryPolicy{}).Delay(1); got != 0 {
		t.Errorf("zero BaseDelay must not wait, got %v", got)
	}
	// A huge attempt number must saturate, not overflow into a negative
	// delay.
	if got := p.Delay(500); got < 0 || got > p.MaxDelay {
		t.Errorf("Delay(500) = %v, want within [0, MaxDelay]", got)
	}
}

// TestRetryCountsCallersAttempt: Retry continues after a first attempt
// the caller made itself, so that attempt counts toward MaxAttempts and
// the calls, retry hooks and result match Do's for the same failures.
func TestRetryCountsCallersAttempt(t *testing.T) {
	first := &transientErr{n: 1}
	cases := []struct {
		name      string
		pol       RetryPolicy
		first     error
		succeedAt int // call of fn that succeeds; 0 never
		wantCalls int
		wantHooks []int
		wantErr   error
	}{
		{"budget counts the first attempt", RetryPolicy{MaxAttempts: 3}, first, 0, 2, []int{1, 2}, &transientErr{n: 3}},
		{"recovers on a retry", RetryPolicy{MaxAttempts: 3}, first, 1, 1, []int{1}, nil},
		{"no budget", RetryPolicy{}, first, 0, 0, nil, first},
		{"one attempt", RetryPolicy{MaxAttempts: 1}, first, 0, 0, nil, first},
		{"hard fault", RetryPolicy{MaxAttempts: 5}, &hardErr{}, 0, 0, nil, &hardErr{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			var hooks []int
			err := Retry(context.Background(), tc.pol, tc.first, func() error {
				calls++
				if calls == tc.succeedAt {
					return nil
				}
				return &transientErr{n: calls + 1}
			}, func(attempt int, _ error) { hooks = append(hooks, attempt) })
			if calls != tc.wantCalls || fmt.Sprint(hooks) != fmt.Sprint(tc.wantHooks) {
				t.Fatalf("calls=%d hooks=%v, want %d and %v", calls, hooks, tc.wantCalls, tc.wantHooks)
			}
			if fmt.Sprint(err) != fmt.Sprint(tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}
