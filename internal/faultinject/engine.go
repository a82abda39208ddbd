package faultinject

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// Selector is the site-independent half of a rule: two exact string keys,
// an inclusive integer window and a firing probability. Injector keys it
// by (backend, kernel, dim), internal/netfault by (peer, route,
// evaluation index).
type Selector struct {
	// Key1 and Key2 match exactly; "" matches any value.
	Key1, Key2 string
	// Min and Max bound the site's integer inclusively; Max 0 means
	// unbounded.
	Min, Max int
	// Probability in [0,1] is the chance the rule fires at a matching
	// site; below 1, each evaluation draws from the seeded PRNG.
	Probability float64
	// MaxHits bounds how many times the rule may fire (0 = unlimited).
	MaxHits int
	// Draw asks for one extra uniform [0,1) value when the rule fires,
	// taken under the same lock so it stays part of the one stream.
	Draw bool
}

// matches reports whether the selector covers one (key1, key2, n) site.
func (s *Selector) matches(key1, key2 string, n int) bool {
	if s.Key1 != "" && s.Key1 != key1 {
		return false
	}
	if s.Key2 != "" && s.Key2 != key2 {
		return false
	}
	if n < s.Min {
		return false
	}
	if s.Max > 0 && n > s.Max {
		return false
	}
	return true
}

// Engine is the seeded rule evaluator both fault layers share: a private
// PRNG, the per-rule hit budgets and the evaluation and match counters.
// Each layer is a thin site adapter that maps its rules onto Selectors and
// turns the rule Fire returns into its own effect. Every draw happens
// under one mutex, so a single-goroutine caller sees the same fault stream
// on every run. Safe for concurrent use.
type Engine struct {
	rules []Selector

	evals   atomic.Uint64
	matches atomic.Uint64

	mu   sync.Mutex
	rng  *rand.Rand
	hits []uint64 // per-rule fire counts, for MaxHits and Counts
}

// NewEngine arms rules (evaluated in order, first firing rule wins)
// behind a PRNG seeded with seed, so arming the same rules twice replays
// the same stream.
func NewEngine(seed int64, rules []Selector) *Engine {
	return &Engine{
		rules: rules,
		rng:   rand.New(rand.NewSource(seed)),
		hits:  make([]uint64, len(rules)),
	}
}

// Next counts one evaluation and returns its 1-based sequence number.
// Adapters call it once per site, before Fire.
func (e *Engine) Next() uint64 { return e.evals.Add(1) }

// Fire returns the index of the first rule that matches (key1, key2, n)
// and fires, or -1 when none does; draw is that rule's extra uniform
// value (0 unless it sets Draw). The common case — no rule matches —
// takes no lock and allocates nothing.
func (e *Engine) Fire(key1, key2 string, n int) (rule int, draw float64) {
	for i := range e.rules {
		s := &e.rules[i]
		if !s.matches(key1, key2, n) {
			continue
		}
		e.matches.Add(1)
		if draw, fired := e.fire(i, s); fired {
			return i, draw
		}
	}
	return -1, 0
}

// fire spends rule i's hit budget and draws its probability.
func (e *Engine) fire(i int, s *Selector) (draw float64, fired bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s.MaxHits > 0 && e.hits[i] >= uint64(s.MaxHits) {
		return 0, false
	}
	if !(s.Probability >= 1 || e.rng.Float64() < s.Probability) {
		return 0, false
	}
	e.hits[i]++
	if s.Draw {
		draw = e.rng.Float64()
	}
	return draw, true
}

// Counts snapshots the engine's counters: Next calls, rule matches, and
// each rule's fire count in rule order.
func (e *Engine) Counts() (evals, matches uint64, fired []uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evals.Load(), e.matches.Load(), append([]uint64(nil), e.hits...)
}
