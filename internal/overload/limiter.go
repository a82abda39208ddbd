package overload

import (
	"math"
	"sync"
	"time"

	"repro/internal/resilience"
)

// LimiterConfig tunes the AIMD concurrency limiter. The zero value of
// every field takes a sane default; a zero Target disables adaptation and
// pins the limit at Max (the historical fixed-pool behaviour).
type LimiterConfig struct {
	// Min and Max bound the concurrency limit (defaults 1 and 2). Max is
	// the hard ceiling — the worker pool is sized to it — and Min keeps
	// the limiter from collapsing to zero under a latency storm.
	Min, Max int
	// Target is the sweep-latency setpoint: completions under it grow the
	// limit additively (+1 per limit's worth of completions), completions
	// over it halve it. 0 disables adaptation.
	Target time.Duration
	// Cooldown is the minimum spacing between multiplicative decreases
	// (default Target), so one burst of slow completions counts as one
	// congestion signal instead of collapsing the limit to Min.
	Cooldown time.Duration
	// Clock replaces time.Now (tests run the limiter in virtual time).
	Clock resilience.Clock
}

func (c LimiterConfig) withDefaults() LimiterConfig {
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.Target
	}
	return c
}

// Limiter is an adaptive concurrency limiter: AIMD (additive increase,
// multiplicative decrease — TCP congestion avoidance applied to a worker
// pool) on observed completion latency against a target. It replaces a
// fixed "N workers, fail beyond" capacity with a load-tracking ceiling:
// while the backend keeps sweeps under Target the limit climbs toward
// Max, and when latency degrades the limit halves (bounded by Min), so
// the service sheds early instead of queueing into collapse.
//
// The limiter is deterministic: given the same sequence of TryAcquire /
// Release calls and the same injected clock it lands on the same limit.
type Limiter struct {
	cfg LimiterConfig

	mu           sync.Mutex
	limit        float64 // current ceiling; int part is the admitted bound
	inflight     int
	lastDecrease time.Time
}

// NewLimiter builds a limiter starting optimistically at Max — the first
// latency overshoot brings it down, which beats starting cold and slow.
func NewLimiter(cfg LimiterConfig) *Limiter {
	cfg = cfg.withDefaults()
	return &Limiter{cfg: cfg, limit: float64(cfg.Max)}
}

// TryAcquire claims one concurrency slot if the current limit allows it.
// Every successful TryAcquire must be paired with exactly one Release (or
// Cancel, when the slot never ran any work).
//
//blobvet:hotpath
func (l *Limiter) TryAcquire() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight >= l.bound() {
		return false
	}
	l.inflight++
	return true
}

// Release returns a slot and feeds the completed work's latency into the
// AIMD loop.
//
//blobvet:hotpath
func (l *Limiter) Release(latency time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inflight--
	l.observe(latency)
}

// Cancel returns a slot without a latency observation — the admitted work
// never ran (submit failure, shed at grant time).
func (l *Limiter) Cancel() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inflight--
}

// observe runs one AIMD step. Caller holds l.mu.
func (l *Limiter) observe(latency time.Duration) {
	if l.cfg.Target <= 0 {
		return
	}
	if latency > l.cfg.Target {
		now := l.cfg.Clock.Now()
		if now.Sub(l.lastDecrease) < l.cfg.Cooldown {
			return
		}
		l.lastDecrease = now
		l.limit = math.Max(float64(l.cfg.Min), l.limit/2)
		return
	}
	// Additive increase spread over the current limit's worth of
	// completions: one full RTT at the current concurrency earns +1.
	l.limit = math.Min(float64(l.cfg.Max), l.limit+1/math.Max(1, l.limit))
}

// bound is the integer admission bound. Caller holds l.mu.
func (l *Limiter) bound() int {
	b := int(l.limit)
	if b < l.cfg.Min {
		b = l.cfg.Min
	}
	return b
}

// Limit returns the current integer concurrency ceiling.
func (l *Limiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bound()
}

// Inflight returns the number of slots currently held.
func (l *Limiter) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}
