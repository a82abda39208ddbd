// Package faultinject is the deterministic fault-injection harness behind
// the repository's resilience layer. A Plan is a seeded, replayable list of
// rules — each keyed by backend ("cpu", "gpu", "xfer", "usm", "service"),
// kernel and problem-size range, with a per-site firing probability — that
// an armed Injector evaluates at well-defined injection points inside the
// simulated backends (internal/sim/cpumodel, and gpumodel for its kernel
// and its xfer or usm movement sites) and the serving layer.
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
// unit test. The PRNG, the hit budgets and the first-firing-rule loop live
// in this package's Engine (engine.go), which internal/netfault's
// wire-level injector shares; Injector is the (backend, kernel, dim) site
// adapter over it. When no plan is armed the injection point is a
// nil-interface check: zero allocations, zero locked sections, effectively
// zero cost (proved by a benchmark-suite case and an allocation test).
package faultinject

import (
	"errors"
	"fmt"
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

// kindNames are the plan-schema spellings, indexed by Kind.
var kindNames = [...]string{Transient: "transient", Hard: "hard", Latency: "latency", PanicKind: "panic"}

// String returns the plan-schema spelling of the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// The plan-schema sentinels: ParseKind wraps ErrUnknownKind, Kind's
// MarshalJSON wraps ErrMarshalKind, Validate wraps ErrBadRule with the
// rule's index and what is wrong with it, and ParsePlan wraps ErrBadPlan
// when data follows the plan.
var (
	ErrUnknownKind = errors.New("faultinject: unknown fault kind")
	ErrMarshalKind = errors.New("faultinject: cannot marshal")
	ErrBadRule     = errors.New("faultinject: rule")
	ErrBadPlan     = errors.New("faultinject: bad plan")
)

// ParseKind converts a plan-schema token into a Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
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
	eng   *Engine
}

// Arm builds a live Injector from the plan. The injector owns a private
// PRNG seeded with Plan.Seed, so arming the same plan twice replays the
// same fault stream.
func (p *Plan) Arm() *Injector {
	rules := make([]Rule, len(p.Rules))
	copy(rules, p.Rules)
	sels := make([]Selector, len(rules))
	for i, r := range rules {
		sels[i] = Selector{Key1: r.Backend, Key2: r.Kernel, Min: r.MinDim, Max: r.MaxDim,
			Probability: r.Probability, MaxHits: r.MaxHits}
	}
	return &Injector{rules: rules, eng: NewEngine(p.Seed, sels)}
}

// At evaluates the plan at one site and produces the first firing rule's
// fault. The common case — no rule matches — touches no locks and
// allocates nothing.
func (in *Injector) At(site Site) (float64, error) {
	seq := in.eng.Next()
	i, _ := in.eng.Fire(site.Backend, site.Kernel, site.Dim)
	if i < 0 {
		return 0, nil
	}
	switch r := &in.rules[i]; r.Kind {
	case Latency:
		return r.LatencySeconds, nil
	case PanicKind:
		panic(&PanicFault{Site: site, Seq: seq})
	case Hard:
		return 0, &Error{Site: site, Kind: Hard, Seq: seq}
	default:
		return 0, &Error{Site: site, Kind: Transient, Seq: seq}
	}
}

// Stats snapshots the injector's counters.
func (in *Injector) Stats() Stats {
	evals, matches, fired := in.eng.Counts()
	s := Stats{Evaluations: evals, Matches: matches}
	for i, n := range fired {
		switch in.rules[i].Kind {
		case Latency:
			s.Latencies += n
		case PanicKind:
			s.Panics += n
		case Hard:
			s.Hards += n
		default:
			s.Transients += n
		}
	}
	return s
}
