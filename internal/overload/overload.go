// Package overload is the admission-control and graceful-degradation
// layer in front of the advisor service's sweep pool. Threshold sweeps
// are seconds of work each (§III-C's interleaved repetitions), so under a
// burst of distinct requests a fixed-capacity pool either saturates the
// host or fail-fasts indiscriminately. This package replaces that with
// three cooperating mechanisms:
//
//   - an AIMD adaptive concurrency limiter (Limiter): the admitted
//     concurrency tracks observed sweep latency against a target, the way
//     TCP tracks path capacity — additive increase while healthy,
//     multiplicative decrease on congestion;
//   - a deadline-aware LIFO admission queue: under saturation, waiters
//     queue newest-first (fresh requests have the most remaining budget;
//     under sustained overload the oldest waiters are the ones whose
//     clients have given up), and a request is shed *before* execution
//     whenever its remaining deadline budget cannot cover the observed
//     p50 sweep cost — shedding early and cheaply instead of timing out
//     late and expensively, in the spirit of CoDel;
//   - per-client fair-share token buckets (keyed by API key or remote
//     host), so one client's burst exhausts its own budget instead of the
//     whole pool.
//
// Priority tiers are handled by construction rather than by a scheduler:
// cached and stale-degraded responses never enter admission at all (the
// service answers them inline), so the cheap tier can never be queued
// behind cold sweeps.
//
// Every decision surfaces through Acquire's return value, every clock
// read goes through an injectable resilience.Clock, and the package
// starts no goroutines, so the whole layer is deterministic under test.
package overload

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/resilience"
)

// Reason classifies a shed decision; it travels to clients verbatim in
// the rejection body's "reason" field.
type Reason string

// Shed reasons.
const (
	// ReasonQueueFull: the admission queue is at capacity.
	ReasonQueueFull Reason = "queue_full"
	// ReasonDeadline: the request's remaining deadline budget cannot
	// cover the observed p50 sweep cost, so running it would only
	// manufacture a 504.
	ReasonDeadline Reason = "deadline_budget"
	// ReasonQuota: the client's fair-share token bucket is empty.
	ReasonQuota Reason = "over_quota"
	// ReasonShutdown: the controller is draining; queued work is shed so
	// shutdown never waits on a backlog.
	ReasonShutdown Reason = "shutting_down"
)

// ShedError is an admission refusal: the request was rejected before any
// sweep work ran. RetryAfter is the client hint (how long until a retry
// could plausibly succeed).
type ShedError struct {
	Reason     Reason
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	switch e.Reason {
	case ReasonQueueFull:
		return "overload: admission queue full"
	case ReasonDeadline:
		return "overload: remaining deadline budget below observed sweep cost"
	case ReasonQuota:
		return "overload: client over fair-share quota"
	case ReasonShutdown:
		return "overload: shutting down"
	}
	return fmt.Sprintf("overload: shed (%s)", e.Reason)
}

// Config tunes a Controller. The zero value gives a 2-wide ceiling, an
// 8-deep queue, no latency adaptation and no fair-share enforcement.
// The AIMD floor is one slot, and a multiplicative decrease halves the
// limit at most once per TargetLatency.
type Config struct {
	// MaxConcurrent is the concurrency ceiling (the worker-pool size);
	// default 2.
	MaxConcurrent int
	// TargetLatency is the AIMD setpoint for sweep latency; 0 pins the
	// limit at MaxConcurrent (no adaptation).
	TargetLatency time.Duration
	// QueueCap bounds the LIFO admission queue (default 8).
	QueueCap int
	// FairShareRate is each client's token refill rate in tokens/second;
	// <= 0 disables the fair-share layer. FairShareBurst is the bucket
	// size (default 4); the bucket table holds at most 1024 clients.
	FairShareRate  float64
	FairShareBurst int
	// Clock replaces time.Now everywhere in the layer (tests).
	Clock resilience.Clock
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 2
	}
	if c.QueueCap < 1 {
		c.QueueCap = 8
	}
	if c.FairShareBurst < 1 {
		c.FairShareBurst = 4
	}
	return c
}

// Ticket describes one admission request.
type Ticket struct {
	// Client is the fair-share identity (API key header or remote host).
	Client string
	// Deadline is the request's absolute deadline; the zero value means
	// no deadline (never shed on budget).
	Deadline time.Time
}

// Controller combines the limiter, the admission queue and the
// fair-share table. Acquire on the request path, Permit.Release when the
// admitted work completes.
type Controller struct {
	cfg     Config
	limiter *Limiter
	costs   *costEstimator
	fair    *fairShare

	mu     sync.Mutex
	closed bool
	queue  []*waiter // stack: append on enqueue, pop from the tail (LIFO)
	queued int       // live (uncancelled) waiters in queue
}

// waiter is one request blocked in Acquire. All fields besides the
// channel are guarded by the controller's mutex.
type waiter struct {
	grant     chan struct{}
	deadline  time.Time
	err       error // set before grant is closed on a shed-while-queued
	granted   bool
	cancelled bool
}

// New builds a Controller.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		cfg: cfg,
		limiter: NewLimiter(LimiterConfig{
			Max:    cfg.MaxConcurrent,
			Target: cfg.TargetLatency,
			Clock:  cfg.Clock,
		}),
		costs: newCostEstimator(),
		fair:  newFairShare(cfg.FairShareRate, float64(cfg.FairShareBurst), cfg.Clock),
	}
}

// Permit is one admitted unit of work. Exactly one of Release or Cancel
// must be called; both are idempotent.
type Permit struct {
	c    *Controller
	once sync.Once
}

// Release returns the permit and feeds the work's duration into the AIMD
// loop and the p50 cost estimator, then grants queued waiters whatever
// capacity is now free.
func (p *Permit) Release(latency time.Duration) {
	p.once.Do(func() {
		p.c.limiter.Release(latency)
		p.c.costs.add(latency)
		p.c.grantNext()
	})
}

// Cancel returns the permit without a latency sample — the admitted work
// never ran.
func (p *Permit) Cancel() {
	p.once.Do(func() {
		p.c.limiter.Cancel()
		p.c.grantNext()
	})
}

// Acquire admits one sweep, queues the caller (LIFO, deadline-aware)
// when the limiter is saturated, or sheds with a *ShedError. A context
// error is returned as-is when ctx is done before a decision.
func (c *Controller) Acquire(ctx context.Context, t Ticket) (*Permit, error) {
	// Fair share first: a quota refusal must not depend on pool state or
	// occupy a queue slot.
	if ok, retry := c.fair.allow(t.Client); !ok {
		return nil, &ShedError{Reason: ReasonQuota, RetryAfter: retry}
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, &ShedError{Reason: ReasonShutdown, RetryAfter: time.Second}
	}
	if c.limiter.TryAcquire() {
		c.mu.Unlock()
		return &Permit{c: c}, nil
	}
	// Saturated. Shed before queueing when the budget already cannot
	// cover the median sweep, or when the queue is full.
	if err := c.budgetShed(t.Deadline); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if c.queued >= c.cfg.QueueCap {
		c.mu.Unlock()
		return nil, &ShedError{Reason: ReasonQueueFull, RetryAfter: c.retryAfterHint()}
	}
	w := &waiter{grant: make(chan struct{}), deadline: t.Deadline}
	c.queue = append(c.queue, w)
	c.queued++
	c.mu.Unlock()

	select {
	case <-w.grant:
		if w.err != nil {
			return nil, w.err
		}
		return &Permit{c: c}, nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// Lost the race: a grant arrived while ctx fired. The slot is
			// ours to return.
			c.mu.Unlock()
			if w.err == nil {
				(&Permit{c: c}).Cancel()
			}
			return nil, ctx.Err()
		}
		w.cancelled = true
		c.queued--
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// budgetShed decides the CoDel-style early shed: with a deadline and a
// cost estimate, a remaining budget below the p50 sweep cost means the
// request would almost surely expire in the queue. Caller holds c.mu.
func (c *Controller) budgetShed(deadline time.Time) error {
	if deadline.IsZero() {
		return nil
	}
	p50 := c.costs.p50()
	if p50 <= 0 {
		return nil
	}
	if deadline.Sub(c.cfg.Clock.Now()) < p50 {
		return &ShedError{Reason: ReasonDeadline, RetryAfter: c.retryAfterHint()}
	}
	return nil
}

// retryAfterHint is the Retry-After for capacity sheds: roughly one
// median sweep (the earliest a slot can plausibly free), floored at 1s.
func (c *Controller) retryAfterHint() time.Duration {
	if p50 := c.costs.p50(); p50 > time.Second {
		return p50
	}
	return time.Second
}

// grantNext hands freed capacity to queued waiters, newest first. A
// waiter whose budget has been burned below the p50 cost while queueing
// is shed here instead of being granted a doomed slot.
func (c *Controller) grantNext() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) > 0 {
		w := c.queue[len(c.queue)-1]
		c.queue = c.queue[:len(c.queue)-1]
		if w.cancelled {
			continue
		}
		if !c.limiter.TryAcquire() {
			c.queue = append(c.queue, w)
			return
		}
		if err := c.budgetShed(w.deadline); err != nil {
			c.limiter.Cancel()
			w.err = err
			w.granted = true
			c.queued--
			close(w.grant)
			continue
		}
		w.granted = true
		c.queued--
		close(w.grant)
	}
}

// Close sheds every queued waiter with ReasonShutdown and refuses new
// admissions. In-flight permits are unaffected: their work completes and
// their Release calls are still safe. Close is idempotent.
func (c *Controller) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, w := range c.queue {
		if w.cancelled || w.granted {
			continue
		}
		w.err = &ShedError{Reason: ReasonShutdown, RetryAfter: time.Second}
		w.granted = true
		c.queued--
		close(w.grant)
	}
	c.queue = nil
}

// Limit returns the limiter's current concurrency ceiling.
func (c *Controller) Limit() int { return c.limiter.Limit() }

// Inflight returns the number of admitted, unreleased permits.
func (c *Controller) Inflight() int { return c.limiter.Inflight() }

// QueueDepth returns the number of live queued waiters.
func (c *Controller) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued
}

// P50Cost returns the current median sweep-cost estimate (0 before any
// completion).
func (c *Controller) P50Cost() time.Duration { return c.costs.p50() }
