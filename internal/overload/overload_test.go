package overload

import (
	"context"
	"errors"
	"testing"
	"time"
)

func shedReason(t *testing.T, err error) Reason {
	t.Helper()
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("error %v is not a ShedError", err)
	}
	return shed.Reason
}

// TestControllerAdmitsUpToLimit: the controller admits MaxConcurrent
// permits, queues QueueCap waiters behind them and sheds the next caller
// with queue_full; a release hands its slot to the queued waiter.
func TestControllerAdmitsUpToLimit(t *testing.T) {
	c := New(Config{MaxConcurrent: 2, QueueCap: 1})
	ctx := context.Background()
	p1, err := c.Acquire(ctx, Ticket{Client: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire(ctx, Ticket{Client: "a"}); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, Ticket{Client: "a"})
		queued <- err
	}()
	waitDepth(t, c, 1)
	if _, err := c.Acquire(ctx, Ticket{Client: "a"}); shedReason(t, err) != ReasonQueueFull {
		t.Fatalf("fourth acquire: %v, want queue_full shed", err)
	}
	p1.Release(time.Millisecond)
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	if got := c.Inflight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
}

// TestControllerLIFOQueue: waiters are granted newest-first when
// capacity frees — adaptive LIFO, the discipline that serves fresh
// requests (whose clients are still there) ahead of stale ones.
func TestControllerLIFOQueue(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, QueueCap: 4})
	hold, err := c.Acquire(context.Background(), Ticket{Client: "x"})
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 4)
	acquired := make(chan *Permit, 4)
	enqueue := func(name string, depth int) {
		go func() {
			p, err := c.Acquire(context.Background(), Ticket{Client: name})
			if err != nil {
				t.Error(err)
				order <- "err:" + name
				return
			}
			order <- name
			acquired <- p
		}()
		waitDepth(t, c, depth)
	}
	enqueue("first", 1)
	enqueue("second", 2)
	enqueue("third", 3)

	hold.Release(time.Millisecond)
	for _, want := range []string{"third", "second", "first"} {
		if got := <-order; got != want {
			t.Fatalf("grant order got %q, want %q (LIFO)", got, want)
		}
		(<-acquired).Release(time.Millisecond)
	}
}

// waitDepth blocks until the controller's queue holds at least want live
// waiters — the only observable signal that an Acquire goroutine has
// enqueued itself.
func waitDepth(t *testing.T, c *Controller, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.QueueDepth() < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", c.QueueDepth(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestControllerDeadlineShed: with a cost estimate on record, a request
// whose remaining budget is below the p50 sweep cost is shed at enqueue
// time with reason deadline_budget — before any queueing or execution.
func TestControllerDeadlineShed(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{MaxConcurrent: 1, QueueCap: 4, Clock: clk.Clock()})

	// Record a 100ms cost estimate.
	p, err := c.Acquire(context.Background(), Ticket{Client: "a"})
	if err != nil {
		t.Fatal(err)
	}
	p.Release(100 * time.Millisecond)
	if got := c.P50Cost(); got != 100*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}

	// Saturate the single slot.
	hold, err := c.Acquire(context.Background(), Ticket{Client: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release(time.Millisecond)

	// 40ms of budget < 100ms p50: shed immediately.
	tight := Ticket{Client: "b", Deadline: clk.Now().Add(40 * time.Millisecond)}
	if _, err := c.Acquire(context.Background(), tight); shedReason(t, err) != ReasonDeadline {
		t.Fatalf("tight-budget acquire: %v, want deadline_budget shed", err)
	}

	// A roomy budget queues instead (then we abandon it via ctx).
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, Ticket{Client: "b", Deadline: clk.Now().Add(time.Hour)})
		done <- err
	}()
	waitDepth(t, c, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter: %v, want context.Canceled", err)
	}
	if got := c.QueueDepth(); got != 0 {
		t.Fatalf("queue depth after cancel = %d", got)
	}
}

// TestControllerGrantTimeShed: a waiter that was admissible when it
// queued but whose budget burned below the p50 cost while waiting is
// shed at grant time instead of being handed a doomed slot.
func TestControllerGrantTimeShed(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{MaxConcurrent: 1, QueueCap: 4, Clock: clk.Clock()})
	p, _ := c.Acquire(context.Background(), Ticket{Client: "a"})
	p.Release(100 * time.Millisecond) // cost estimate: 100ms

	hold, _ := c.Acquire(context.Background(), Ticket{Client: "a"})
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(context.Background(), Ticket{Client: "b", Deadline: clk.Now().Add(200 * time.Millisecond)})
		done <- err
	}()
	waitDepth(t, c, 1)

	// Burn the waiter's budget in virtual time, then free the slot.
	clk.Advance(150 * time.Millisecond)
	hold.Release(time.Millisecond)
	if err := <-done; shedReason(t, err) != ReasonDeadline {
		t.Fatalf("grant-time shed: %v, want deadline_budget", err)
	}
	// The slot stayed free for the next request.
	if p, err := c.Acquire(context.Background(), Ticket{Client: "c"}); err != nil {
		t.Fatalf("slot lost after grant-time shed: %v", err)
	} else {
		p.Release(time.Millisecond)
	}
}

func TestControllerFairShare(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{MaxConcurrent: 8, FairShareRate: 1, FairShareBurst: 2, Clock: clk.Clock()})

	// Client a spends its burst of 2, then is quota-shed.
	for i := 0; i < 2; i++ {
		p, err := c.Acquire(context.Background(), Ticket{Client: "a"})
		if err != nil {
			t.Fatalf("burst acquire %d: %v", i, err)
		}
		p.Release(time.Millisecond)
	}
	_, err := c.Acquire(context.Background(), Ticket{Client: "a"})
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonQuota {
		t.Fatalf("over-burst acquire: %v, want over_quota", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("quota shed without a Retry-After hint: %+v", shed)
	}

	// Client b is unaffected: fair share is per client.
	if p, err := c.Acquire(context.Background(), Ticket{Client: "b"}); err != nil {
		t.Fatalf("other client shed: %v", err)
	} else {
		p.Release(time.Millisecond)
	}

	// After a refill interval client a is welcome again.
	clk.Advance(1500 * time.Millisecond)
	if p, err := c.Acquire(context.Background(), Ticket{Client: "a"}); err != nil {
		t.Fatalf("post-refill acquire: %v", err)
	} else {
		p.Release(time.Millisecond)
	}
}

func TestControllerClose(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, QueueCap: 4})
	hold, err := c.Acquire(context.Background(), Ticket{Client: "a"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(context.Background(), Ticket{Client: "b"})
		done <- err
	}()
	waitDepth(t, c, 1)

	c.Close()
	if err := <-done; shedReason(t, err) != ReasonShutdown {
		t.Fatalf("queued waiter on close: %v, want shutting_down", err)
	}
	if _, err := c.Acquire(context.Background(), Ticket{Client: "c"}); shedReason(t, err) != ReasonShutdown {
		t.Fatalf("acquire after close: %v, want shutting_down", err)
	}
	// The in-flight permit is still releasable after close.
	hold.Release(time.Millisecond)
	if got := c.Inflight(); got != 0 {
		t.Fatalf("inflight after close+release = %d", got)
	}
	c.Close() // idempotent
}

// TestPermitIdempotent: releasing or cancelling a permit more than once
// frees its slot once, so a queued waiter gets exactly that one slot.
func TestPermitIdempotent(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, QueueCap: 1})
	ctx := context.Background()
	p, err := c.Acquire(ctx, Ticket{Client: "a"})
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan *Permit, 1)
	go func() {
		w, err := c.Acquire(ctx, Ticket{Client: "b"})
		if err != nil {
			t.Error(err)
		}
		granted <- w
	}()
	waitDepth(t, c, 1)
	p.Release(time.Millisecond)
	p.Release(time.Millisecond)
	p.Cancel()
	w := <-granted
	if w == nil {
		t.FailNow()
	}
	if got := c.Inflight(); got != 1 {
		t.Fatalf("inflight after double release = %d, want the waiter's 1", got)
	}
	w.Release(time.Millisecond)
	w.Cancel()
	if got := c.Inflight(); got != 0 {
		t.Fatalf("inflight after the waiter's double release = %d, want 0", got)
	}
}
