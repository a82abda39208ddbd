// Package faultinject is the deterministic fault-injection harness behind
// the repository's resilience layer. A Plan is a seeded, replayable list of
// rules — each keyed by backend ("cpu", "gpu", "xfer", "usm", "service"),
// kernel and problem-size range, with a per-site firing probability — that
// an armed Injector evaluates at well-defined injection points inside the
// simulated backends (internal/sim/cpumodel, gpumodel, xfer, usm) and the
// serving layer.
//
// Four fault kinds cover the failure modes a real offload runtime sees:
//
//   - Transient: the call fails with a retryable error (a dropped DMA, a
//     momentary ECC stall). resilience.Do retries these.
//   - Hard: the call fails with a non-retryable error (device fell off the
//     bus). Retrying is pointless; the sweep aborts and checkpoints.
//   - Latency: the call succeeds but its modeled time gains a spike,
//     exercising deadline budgets without corrupting numerics elsewhere.
//   - Panic: the call panics, exercising the service's containment
//     middleware. Nothing below the HTTP layer recovers these.
//
// Determinism is the point: the Injector consumes a private seeded PRNG in
// call order, so a single-goroutine sweep under a given plan fails at
// exactly the same sites on every run — a chaos test is as replayable as a
// unit test. When no plan is armed the injection point is a nil-interface
// check: zero allocations, zero locked sections, effectively zero cost
// (proved by a benchmark-suite case and an allocation test).
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Backend names used by the repository's injection sites. Site.Backend is
// a free string so plans can cover future subsystems without a lockstep
// change here.
const (
	BackendCPU     = "cpu"     // CPU BLAS library calls (cpumodel)
	BackendGPU     = "gpu"     // GPU BLAS kernel launches (gpumodel)
	BackendXfer    = "xfer"    // explicit host<->device copies (xfer)
	BackendUSM     = "usm"     // page-migration traffic (usm)
	BackendService = "service" // the serving layer itself
)

// Site identifies one injection point evaluation: which backend is about
// to do work, for which kernel family, at what problem size.
type Site struct {
	// Backend is one of the Backend* constants (or a future subsystem).
	Backend string
	// Kernel is "gemm", "gemv" or "" when the site is not kernel-shaped.
	Kernel string
	// Dim is the largest dimension of the call, the same quantity the
	// sweep's upper limit bounds — rules select size ranges with it.
	Dim int
}

func (s Site) String() string {
	if s.Kernel == "" {
		return fmt.Sprintf("%s@%d", s.Backend, s.Dim)
	}
	return fmt.Sprintf("%s/%s@%d", s.Backend, s.Kernel, s.Dim)
}

// Kind enumerates the fault kinds a rule can inject.
type Kind int

// The fault kinds, in severity order.
const (
	Transient Kind = iota
	Hard
	Latency
	PanicKind
)

// String returns the plan-schema spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Hard:
		return "hard"
	case Latency:
		return "latency"
	case PanicKind:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// The plan-schema sentinels: ParseKind wraps ErrUnknownKind, Kind's
// MarshalJSON wraps ErrMarshalKind, and Validate wraps ErrBadRule with the
// rule's index and what is wrong with it.
var (
	ErrUnknownKind = errors.New("faultinject: unknown fault kind")
	ErrMarshalKind = errors.New("faultinject: cannot marshal")
	ErrBadRule     = errors.New("faultinject: rule")
)

// ParseKind converts a plan-schema token into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "transient":
		return Transient, nil
	case "hard":
		return Hard, nil
	case "latency":
		return Latency, nil
	case "panic":
		return PanicKind, nil
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownKind, s)
}

// Rule arms one fault at a set of sites. A zero field matches everything
// in that dimension, so the tightest useful rule names backend, kernel and
// a size range while the loosest ("30% transient everywhere") sets only
// Probability and Kind.
type Rule struct {
	// Backend matches Site.Backend exactly; "" matches any backend.
	Backend string `json:"backend,omitempty"`
	// Kernel matches Site.Kernel exactly; "" matches any kernel.
	Kernel string `json:"kernel,omitempty"`
	// MinDim/MaxDim bound Site.Dim inclusively; MaxDim 0 means unbounded.
	MinDim int `json:"min_dim,omitempty"`
	MaxDim int `json:"max_dim,omitempty"`
	// Probability in [0,1] is the chance the rule fires at a matching
	// site (each evaluation draws from the plan's seeded PRNG).
	Probability float64 `json:"probability"`
	// Kind selects what happens when the rule fires. On the wire it is
	// the lowercase name ("transient", "hard", "latency", "panic"); see
	// plan.go for the JSON mapping.
	Kind Kind `json:"kind"`
	// LatencySeconds is the modeled time added when a Latency rule fires.
	LatencySeconds float64 `json:"latency_seconds,omitempty"`
	// MaxHits bounds how many times the rule may fire (0 = unlimited) —
	// "the device dropped off the bus once" is MaxHits 1.
	MaxHits int `json:"max_hits,omitempty"`
}

// matches reports whether the rule covers the site.
func (r *Rule) matches(s Site) bool {
	if r.Backend != "" && r.Backend != s.Backend {
		return false
	}
	if r.Kernel != "" && r.Kernel != s.Kernel {
		return false
	}
	if s.Dim < r.MinDim {
		return false
	}
	if r.MaxDim > 0 && s.Dim > r.MaxDim {
		return false
	}
	return true
}

// Plan is a complete, replayable fault schedule: a seed plus rules. Plans
// are inert data (load one from JSON, build one in a test); Arm turns a
// plan into a live Injector.
type Plan struct {
	// Seed feeds the injector's private PRNG; the same plan armed twice
	// produces the same fault sequence for the same call sequence.
	Seed int64 `json:"seed"`
	// Rules are evaluated in order; the first firing rule wins.
	Rules []Rule `json:"rules"`
}

// Validate checks the plan's rules for schema errors.
func (p *Plan) Validate() error {
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Probability < 0 || r.Probability > 1 {
			return fmt.Errorf("%w %d: probability %v outside [0,1]", ErrBadRule, i, r.Probability)
		}
		if r.MaxDim > 0 && r.MaxDim < r.MinDim {
			return fmt.Errorf("%w %d: max_dim %d < min_dim %d", ErrBadRule, i, r.MaxDim, r.MinDim)
		}
		if r.Kind == Latency && r.LatencySeconds < 0 {
			return fmt.Errorf("%w %d: negative latency_seconds", ErrBadRule, i)
		}
		if r.Kind != Latency && r.LatencySeconds != 0 {
			return fmt.Errorf("%w %d: latency_seconds set on a %v rule", ErrBadRule, i, r.Kind)
		}
	}
	return nil
}

// Point is the injection-point interface the backends consult. At returns
// the extra modeled seconds a Latency fault adds (usually 0) and the
// error a Transient or Hard fault injects; a Panic fault panics with a
// *PanicFault. Implementations must be safe for concurrent use.
//
// A nil Point means "not armed" and every site carries that meaning in a
// single comparison, which is what keeps the unarmed path free.
type Point interface {
	At(Site) (extraSeconds float64, err error)
}

// Error is the injected failure. It wraps nothing (there is no underlying
// cause — the fault IS the cause) and reports retryability through the
// Transient method that internal/resilience classifies by.
type Error struct {
	Site Site
	Kind Kind
	// Seq is the injector's evaluation counter when the fault fired,
	// making "which call died" reconstructible from logs.
	Seq uint64
}

// Error formats the fault for logs.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: %v fault at %v (seq %d)", e.Kind, e.Site, e.Seq)
}

// Transient reports whether retrying the operation can succeed.
func (e *Error) Transient() bool { return e.Kind == Transient }

// PanicFault is the value a Panic rule panics with; the service's
// recovery middleware logs it like any other panic.
type PanicFault struct {
	Site Site
	Seq  uint64
}

func (p *PanicFault) String() string {
	return fmt.Sprintf("faultinject: deliberate panic at %v (seq %d)", p.Site, p.Seq)
}

// Stats are an armed injector's running counters, for tests and chaos-run
// reporting.
type Stats struct {
	// Evaluations counts At calls; Matches counts rule matches; the per-
	// kind counters count fired faults.
	Evaluations, Matches                 uint64
	Transients, Hards, Latencies, Panics uint64
}

// Injector is an armed Plan: the live Point the backends consult. Create
// with Plan.Arm; share one injector across every backend of a run so the
// fault sequence is a single deterministic stream.
type Injector struct {
	rules []Rule

	mu   sync.Mutex
	rng  *rand.Rand
	hits []int // per-rule fire counts, for MaxHits

	evals     atomic.Uint64
	matches   atomic.Uint64
	transient atomic.Uint64
	hard      atomic.Uint64
	latency   atomic.Uint64
	panics    atomic.Uint64
}

// Arm builds a live Injector from the plan. The injector owns a private
// PRNG seeded with Plan.Seed, so arming the same plan twice replays the
// same fault stream.
func (p *Plan) Arm() *Injector {
	rules := make([]Rule, len(p.Rules))
	copy(rules, p.Rules)
	return &Injector{
		rules: rules,
		rng:   rand.New(rand.NewSource(p.Seed)),
		hits:  make([]int, len(rules)),
	}
}

// At evaluates the plan at one site. The common case — no rule matches —
// touches no locks and allocates nothing.
func (in *Injector) At(site Site) (float64, error) {
	seq := in.evals.Add(1)
	for i := range in.rules {
		r := &in.rules[i]
		if !r.matches(site) {
			continue
		}
		in.matches.Add(1)
		if extra, err, fired := in.fire(i, r, site, seq); fired {
			return extra, err
		}
	}
	return 0, nil
}

// fire draws the rule's probability and, when it fires, produces the
// fault. The PRNG draw sits under the mutex so concurrent consumers see a
// serialized (and therefore replayable-per-order) stream.
func (in *Injector) fire(i int, r *Rule, site Site, seq uint64) (float64, error, bool) {
	in.mu.Lock()
	if r.MaxHits > 0 && in.hits[i] >= r.MaxHits {
		in.mu.Unlock()
		return 0, nil, false
	}
	fired := r.Probability >= 1 || in.rng.Float64() < r.Probability
	if fired {
		in.hits[i]++
	}
	in.mu.Unlock()
	if !fired {
		return 0, nil, false
	}
	switch r.Kind {
	case Latency:
		in.latency.Add(1)
		return r.LatencySeconds, nil, true
	case PanicKind:
		in.panics.Add(1)
		panic(&PanicFault{Site: site, Seq: seq})
	case Hard:
		in.hard.Add(1)
		return 0, &Error{Site: site, Kind: Hard, Seq: seq}, true
	default:
		in.transient.Add(1)
		return 0, &Error{Site: site, Kind: Transient, Seq: seq}, true
	}
}

// Stats snapshots the injector's counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Evaluations: in.evals.Load(),
		Matches:     in.matches.Load(),
		Transients:  in.transient.Load(),
		Hards:       in.hard.Load(),
		Latencies:   in.latency.Load(),
		Panics:      in.panics.Load(),
	}
}
