// Package netfault is the deterministic network-fault layer: the wire-level
// site adapter over internal/faultinject's seeded rule engine, one layer up
// the stack. Where faultinject perturbs the simulated BLAS backends,
// netfault perturbs the HTTP traffic between cluster members — an
// http.RoundTripper wrapper for the client side and net.Listener /
// net.Conn wrappers for the server side — driven by seeded, replayable
// JSON fault plans (schema "netfault/v1").
//
// A plan's rules are keyed by (peer, route, request-index window), so a
// schedule like "partition replica n1 for attempts 40–80, heal, then flap it
// again at 120" is three blackhole rules with different index windows. Six
// fault kinds cover what a real cluster sees on the wire:
//
//   - latency: add a seeded latency (base + jitter) before the request is
//     forwarded — the slow peer that hedged requests exist to beat;
//   - reset: fail the exchange immediately with a connection-reset-flavored
//     transient error;
//   - blackhole: hold the request until its context expires (or a bounded
//     hold elapses), the symptom of a network partition — no RST, no FIN,
//     just silence;
//   - slowloris: deliver the response, but dribble its body a few bytes at
//     a time with a delay per chunk;
//   - truncate: cut the response body short and surface the cut as
//     io.ErrUnexpectedEOF, the way a mid-stream connection loss does;
//   - corrupt: bit-flip the response body payload, which strict envelope
//     decoding (and the content-length check) must catch.
//
// Determinism is the point, and the engine is faultinject's own: the
// Injector draws from a private seeded PRNG in evaluation order, so a
// sequential request schedule under a given plan faults at the same indices
// on every run (the golden tests pin this). When no injector is armed, the
// wrappers are a single nil comparison on the hot path: zero allocations,
// zero locks, benchmarked in netfault_test.go.
package netfault

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/faultinject"
)

// ErrBadPlan is the sentinel wrapped by every plan-shape rejection
// (unknown kind, bad schema token, out-of-range rule field), so callers
// can distinguish a malformed plan from an I/O failure with errors.Is.
var ErrBadPlan = errors.New("netfault: bad plan")

// Kind enumerates the wire-fault kinds a rule can inject.
type Kind int

// The fault kinds. Latency and SlowLoris degrade, Reset and Blackhole
// sever, Truncate and Corrupt lie.
const (
	Latency Kind = iota
	Reset
	Blackhole
	SlowLoris
	Truncate
	Corrupt
	numKinds
)

// kindNames are the plan-schema spellings, indexed by Kind.
var kindNames = [numKinds]string{
	Latency: "latency", Reset: "reset", Blackhole: "blackhole",
	SlowLoris: "slowloris", Truncate: "truncate", Corrupt: "corrupt",
}

// String returns the plan-schema spelling of the kind.
func (k Kind) String() string {
	if k >= 0 && k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a plan-schema token into a Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("%w: unknown fault kind %q", ErrBadPlan, s)
}

// Rule arms one wire fault against a slice of traffic. A zero field matches
// everything in that dimension: the tightest rule names a peer, a route and
// an index window; the loosest ("2% resets everywhere") sets only
// Probability and Kind.
type Rule struct {
	// Peer matches the logical peer name the transport resolves for each
	// request (the URL host by default, a member name under a Peer func);
	// "" matches any peer.
	Peer string `json:"peer,omitempty"`
	// Route matches the request's URL path exactly; "" matches any route.
	Route string `json:"route,omitempty"`
	// MinIndex/MaxIndex bound the injector's global evaluation index
	// (0-based, one per evaluated exchange) inclusively; MaxIndex 0 means
	// unbounded. Index windows are how partitions get heal times: a
	// blackhole over [40,80] heals at 81, and a second window is a flap.
	MinIndex int `json:"min_index,omitempty"`
	MaxIndex int `json:"max_index,omitempty"`
	// Probability in [0,1] is the chance the rule fires at a matching
	// exchange (each evaluation draws from the plan's seeded PRNG).
	Probability float64 `json:"probability"`
	// Kind selects the fault; on the wire it is the lowercase name.
	Kind Kind `json:"kind"`
	// LatencyMs (+ a uniform draw over JitterMs) is the added delay when a
	// Latency rule fires.
	LatencyMs float64 `json:"latency_ms,omitempty"`
	JitterMs  float64 `json:"jitter_ms,omitempty"`
	// HoldMs bounds how long a Blackhole holds before failing when the
	// request context outlives it (default 30000 — a SYN timeout).
	HoldMs float64 `json:"hold_ms,omitempty"`
	// TruncateAfter is how many body bytes survive a Truncate (default 20
	// — enough to look like an envelope, not enough to be one).
	TruncateAfter int `json:"truncate_after,omitempty"`
	// FlipEvery is the byte stride of a Corrupt rule's bit flips (default
	// 64; byte 0 is always flipped so no payload escapes).
	FlipEvery int `json:"flip_every,omitempty"`
	// ChunkBytes / ChunkDelayMs shape a SlowLoris dribble (defaults 1 byte
	// per 1 ms).
	ChunkBytes   int     `json:"chunk_bytes,omitempty"`
	ChunkDelayMs float64 `json:"chunk_delay_ms,omitempty"`
	// MaxHits bounds how many times the rule may fire (0 = unlimited).
	MaxHits int `json:"max_hits,omitempty"`
}

// validate checks one rule for schema errors (i is its index, for messages).
func (r *Rule) validate(i int) error {
	if r.Probability < 0 || r.Probability > 1 {
		return fmt.Errorf("%w: rule %d: probability %v outside [0,1]", ErrBadPlan, i, r.Probability)
	}
	if r.MinIndex < 0 {
		return fmt.Errorf("%w: rule %d: negative min_index", ErrBadPlan, i)
	}
	if r.MaxIndex > 0 && r.MaxIndex < r.MinIndex {
		return fmt.Errorf("%w: rule %d: max_index %d < min_index %d", ErrBadPlan, i, r.MaxIndex, r.MinIndex)
	}
	if r.LatencyMs < 0 || r.JitterMs < 0 || r.HoldMs < 0 || r.ChunkDelayMs < 0 {
		return fmt.Errorf("%w: rule %d: negative duration field", ErrBadPlan, i)
	}
	if r.TruncateAfter < 0 || r.FlipEvery < 0 || r.ChunkBytes < 0 {
		return fmt.Errorf("%w: rule %d: negative byte-count field", ErrBadPlan, i)
	}
	if (r.LatencyMs != 0 || r.JitterMs != 0) && r.Kind != Latency {
		return fmt.Errorf("%w: rule %d: latency_ms/jitter_ms set on a %v rule", ErrBadPlan, i, r.Kind)
	}
	if r.HoldMs != 0 && r.Kind != Blackhole {
		return fmt.Errorf("%w: rule %d: hold_ms set on a %v rule", ErrBadPlan, i, r.Kind)
	}
	if r.TruncateAfter != 0 && r.Kind != Truncate {
		return fmt.Errorf("%w: rule %d: truncate_after set on a %v rule", ErrBadPlan, i, r.Kind)
	}
	if r.FlipEvery != 0 && r.Kind != Corrupt {
		return fmt.Errorf("%w: rule %d: flip_every set on a %v rule", ErrBadPlan, i, r.Kind)
	}
	if (r.ChunkBytes != 0 || r.ChunkDelayMs != 0) && r.Kind != SlowLoris {
		return fmt.Errorf("%w: rule %d: chunk_bytes/chunk_delay_ms set on a %v rule", ErrBadPlan, i, r.Kind)
	}
	return nil
}

// Fault is one resolved firing: the kind plus its fully defaulted
// parameters, stamped with the evaluation index that drew it.
type Fault struct {
	Kind  Kind
	Peer  string
	Route string
	Index int

	Latency       time.Duration // Latency: resolved base + jitter draw
	Hold          time.Duration // Blackhole: bounded hold
	TruncateAfter int           // Truncate: surviving body bytes
	FlipEvery     int           // Corrupt: bit-flip byte stride
	ChunkBytes    int           // SlowLoris: bytes per dribble
	ChunkDelay    time.Duration // SlowLoris: delay per dribble
}

// FaultError is the injected wire failure. It reports itself transient
// (resilience.IsTransient retries it): a reset or a partition is exactly
// the class of failure a retry or a hedge may beat.
type FaultError struct {
	Kind  Kind
	Peer  string
	Route string
	Index int
}

// Error formats the fault for logs.
func (e *FaultError) Error() string {
	return fmt.Sprintf("netfault: injected %v (peer %q route %q index %d)", e.Kind, e.Peer, e.Route, e.Index)
}

// Transient reports that retrying may succeed (resilience.Transienter).
func (e *FaultError) Transient() bool { return true }

// Timeout implements net.Error's convention: a blackhole looks like a
// timed-out dial, a reset does not.
func (e *FaultError) Timeout() bool { return e.Kind == Blackhole }

// Stats are an armed injector's running counters.
type Stats struct {
	// Evaluations counts At calls; Matches counts rule matches; Fired
	// counts per kind.
	Evaluations, Matches uint64
	Fired                [numKinds]uint64
}

// Total returns the fired-fault total across kinds.
func (s Stats) Total() uint64 {
	var n uint64
	for _, v := range s.Fired {
		n += v
	}
	return n
}

// Injector is an armed Plan: the live decision point the transport and
// listener wrappers consult. Create with Plan.Arm; share one injector
// across every wrapped edge of a run so the fault stream is a single
// deterministic sequence. A nil *Injector is "not armed" and costs one
// comparison per exchange.
type Injector struct {
	rules []Rule
	eng   *faultinject.Engine
}

// Arm builds a live Injector. The injector owns a private PRNG seeded with
// Plan.Seed, so arming the same plan twice replays the same fault stream
// for the same evaluation sequence.
func (p *Plan) Arm() *Injector {
	rules := make([]Rule, len(p.Rules))
	copy(rules, p.Rules)
	sels := make([]faultinject.Selector, len(rules))
	for i, r := range rules {
		sels[i] = faultinject.Selector{Key1: r.Peer, Key2: r.Route, Min: r.MinIndex, Max: r.MaxIndex,
			Probability: r.Probability, MaxHits: r.MaxHits, Draw: r.Kind == Latency && r.JitterMs > 0}
	}
	return &Injector{rules: rules, eng: faultinject.NewEngine(p.Seed, sels)}
}

// At evaluates the plan for one exchange against peer over route. It
// returns nil (no fault — the overwhelmingly common case) or the first
// firing rule's Fault with its parameters resolved. Safe on a nil
// receiver, which is what keeps unarmed wrappers free.
func (in *Injector) At(peer, route string) *Fault {
	if in == nil {
		return nil
	}
	idx := int(in.eng.Next() - 1)
	i, draw := in.eng.Fire(peer, route, idx)
	if i < 0 {
		return nil
	}
	r := &in.rules[i]
	f := &Fault{Kind: r.Kind, Peer: peer, Route: route, Index: idx}
	switch r.Kind {
	case Latency:
		f.Latency = time.Duration((r.LatencyMs + draw*r.JitterMs) * float64(time.Millisecond))
	case Blackhole:
		hold := r.HoldMs
		if hold <= 0 {
			hold = 30_000
		}
		f.Hold = time.Duration(hold * float64(time.Millisecond))
	case Truncate:
		f.TruncateAfter = r.TruncateAfter
		if f.TruncateAfter <= 0 {
			f.TruncateAfter = 20
		}
	case Corrupt:
		f.FlipEvery = r.FlipEvery
		if f.FlipEvery <= 0 {
			f.FlipEvery = 64
		}
	case SlowLoris:
		f.ChunkBytes = r.ChunkBytes
		if f.ChunkBytes <= 0 {
			f.ChunkBytes = 1
		}
		delay := r.ChunkDelayMs
		if delay <= 0 {
			delay = 1
		}
		f.ChunkDelay = time.Duration(delay * float64(time.Millisecond))
	}
	return f
}

// Error builds the FaultError for a severing fault.
func (f *Fault) Error() *FaultError {
	return &FaultError{Kind: f.Kind, Peer: f.Peer, Route: f.Route, Index: f.Index}
}

// Stats snapshots the injector's counters (zero value on a nil receiver).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	evals, matches, fired := in.eng.Counts()
	s := Stats{Evaluations: evals, Matches: matches}
	for i, n := range fired {
		s.Fired[in.rules[i].Kind] += n
	}
	return s
}
