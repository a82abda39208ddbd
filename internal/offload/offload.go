// Package offload is the auto-offload dispatch runtime: a drop-in,
// context-aware Gemm/Gemv façade that decides, per BLAS invocation,
// whether the call should run on the CPU or be offloaded to the GPU.
//
// It is the consumer of this paper's offload thresholds that the two
// automatic-offloading papers in PAPERS.md describe ("Performant
// Automatic BLAS Offloading on Unified Memory Architecture with OpenMP
// First-Touch Style Data Movement" and the Grace-Hopper study): an
// intercepting runtime sits under the application's BLAS calls and
// routes each one to the faster device, consulting the calibrated
// timing models the advisor exposes. A verdict is a function of the
// call alone, never of the calls before it, and three mechanisms keep
// that per-call consultation cheap and stable:
//
//   - Memoization. Applications replay the same handful of call shapes
//     millions of times, so verdicts are memoized in one map keyed by
//     the Call value itself: two shapes share a verdict only when every
//     field agrees. A shape's first sighting inserts its entry before
//     evaluating, so concurrent callers of that shape wait for the one
//     evaluation instead of repeating it. The map holds at most
//     memoBound entries; a full map is cleared before the next insert.
//
//   - Stateless margin. Near the offload threshold the two modeled times
//     are within noise of each other. A call goes to the GPU only when
//     its modeled GPU time beats the CPU time by a 10% margin; inside
//     that band the CPU, which moves no data, keeps it. The rule reads
//     only the call's own times, so arrival order and memo history
//     cannot change a verdict.
//
//   - First-touch/USM placement awareness. Under unified memory the
//     first kernel after placement pays page-fault migration for the
//     whole working set, but operands the runtime already placed on the
//     device (Call.Resident) pay only the residual re-fault fraction;
//     the dispatcher prices both cases with the usm model, which is
//     exactly the first-touch-style data-movement argument of the
//     OpenMP first-touch paper.
//
// blob-served exposes the dispatcher as the batched POST /v1/dispatch
// endpoint, so remote BLAS interception layers can stream thousands of
// call shapes and get routing verdicts back in one round trip.
package offload

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// Device is the routing verdict for one call.
type Device uint8

// The two targets a call can be routed to. The zero value is reserved,
// so a zero Decision never names a device.
const (
	CPU Device = iota + 1
	GPU
)

// String names the device for wire formats and logs.
func (d Device) String() string {
	switch d {
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	}
	return "unknown"
}

// Call is one BLAS invocation presented to the dispatcher: the advisor's
// call-group model plus the data-placement hint an intercepting runtime
// has that a cold advisor does not.
type Call struct {
	advisor.Call
	// Resident marks operands whose device placement has already been
	// paid: under the Unified strategy the first-touch page migration is
	// history and only the residual re-fault fraction moves per
	// iteration. Ignored for the explicit-copy strategies, whose
	// transfers are part of every invocation by definition.
	Resident bool
}

// Decision is the dispatcher's verdict for one call.
type Decision struct {
	// Device is where the call should run.
	Device Device
	// CPUSeconds and GPUSeconds are the modeled times for the whole call
	// group (data movement included; residency-adjusted when it applies).
	CPUSeconds float64
	GPUSeconds float64
	// Speedup is CPUSeconds/GPUSeconds: the call offloads above 1.1.
	Speedup float64
	// Cached reports the verdict was served from the memo map (or shared
	// with a concurrent evaluation of the same shape) rather than
	// evaluated against the timing models.
	Cached bool
	// Held reports that the raw model comparison preferred the GPU but
	// the margin kept the call on the CPU.
	Held bool
}

// EvaluateFunc prices one validated call on one system: total modeled
// CPU and GPU seconds for the call group. The default is advisor.Times;
// tests substitute counting or scripted implementations.
type EvaluateFunc func(sys systems.System, c advisor.Call) (cpuSeconds, gpuSeconds float64)

// Options configures a Dispatcher.
type Options struct {
	// System is the machine whose timing models decide placement
	// (required).
	System systems.System
	// Evaluate replaces the timing-model evaluation (tests only).
	Evaluate EvaluateFunc
}

// Stats is a snapshot of the dispatcher's counters.
type Stats struct {
	// Decisions counts calls routed (errors excluded).
	Decisions uint64
	// CacheHits counts decisions served from a finished memo entry.
	CacheHits uint64
	// SharedHits counts decisions that waited on a concurrent evaluation
	// of the same shape instead of evaluating twice.
	SharedHits uint64
	// Evaluations counts timing-model evaluations — at most one per
	// distinct shape while it stays cached.
	Evaluations uint64
	// Holds counts evaluated verdicts the margin kept on the CPU against
	// a raw GPU preference.
	Holds uint64
}

// margin is the band the GPU must win by: a call is offloaded only when
// gpu·(1+margin) < cpu.
const margin = 0.10

// memoBound caps the memo map. /v1/dispatch feeds it outside input, so
// a full map is cleared before the next insert rather than grown.
const memoBound = 8192

// Dispatcher routes BLAS calls between CPU and GPU for one system.
// Construct with New; methods are safe for concurrent use.
type Dispatcher struct {
	sys      systems.System
	evaluate EvaluateFunc

	mu   sync.Mutex
	memo map[Call]*entry

	decisions, cacheHits, sharedHits atomic.Uint64
	evaluations, holds               atomic.Uint64
}

// entry is one memoized shape. dec is written once, before done closes;
// readers touch it only after done is closed.
type entry struct {
	done chan struct{}
	dec  Decision
}

// New builds a Dispatcher for one system.
func New(opts Options) *Dispatcher {
	if opts.Evaluate == nil {
		opts.Evaluate = advisor.Times
	}
	return &Dispatcher{
		sys:      opts.System,
		evaluate: opts.Evaluate,
		memo:     map[Call]*entry{},
	}
}

// Gemm routes one group of count back-to-back GEMM calls of shape
// (m, n, k) under the given transfer strategy. resident marks operands
// already placed on the device (USM first touch paid).
func (d *Dispatcher) Gemm(ctx context.Context, prec core.Precision, m, n, k, count int, s xfer.Strategy, resident bool) (Decision, error) {
	return d.Decide(ctx, Call{
		Call:     advisor.Call{Kernel: core.GEMM, M: m, N: n, K: k, Precision: prec, Count: count, Strategy: s},
		Resident: resident,
	})
}

// Gemv routes one group of count back-to-back GEMV calls of shape (m, n)
// under the given transfer strategy.
func (d *Dispatcher) Gemv(ctx context.Context, prec core.Precision, m, n, count int, s xfer.Strategy, resident bool) (Decision, error) {
	return d.Decide(ctx, Call{
		Call:     advisor.Call{Kernel: core.GEMV, M: m, N: n, Precision: prec, Count: count, Strategy: s},
		Resident: resident,
	})
}

// Decide routes one call. The hot path — a shape seen before — is one
// locked map lookup, allocation-free; a shape's first sighting evaluates
// the timing models once, applies the residency adjustment and the
// margin, and memoizes the verdict, while concurrent callers of the
// same shape wait for that evaluation. A cancelled context returns its
// error without touching dispatcher state.
//
//blobvet:hotpath
func (d *Dispatcher) Decide(ctx context.Context, c Call) (Decision, error) {
	if err := ctx.Err(); err != nil {
		return Decision{}, err
	}
	if err := c.Validate(); err != nil {
		return Decision{}, err
	}
	d.mu.Lock()
	e, seen := d.memo[c]
	if !seen {
		e = d.insert(c)
	}
	d.mu.Unlock()
	d.decisions.Add(1)
	if !seen {
		e.dec = d.evaluateCall(c)
		close(e.done)
		return e.dec, nil
	}
	select {
	case <-e.done:
		d.cacheHits.Add(1)
	default:
		<-e.done
		d.sharedHits.Add(1)
	}
	dec := e.dec
	dec.Cached = true
	return dec, nil
}

// insert adds a pending entry for a first sighting, clearing a full map
// first; callers already waiting on an evicted entry keep their pointer.
// Caller holds d.mu.
func (d *Dispatcher) insert(c Call) *entry {
	if len(d.memo) >= memoBound {
		clear(d.memo)
	}
	e := &entry{done: make(chan struct{})}
	d.memo[c] = e
	return e
}

// evaluateCall prices the call, applies the USM residency adjustment and
// the margin, and shapes the Decision.
func (d *Dispatcher) evaluateCall(c Call) Decision {
	d.evaluations.Add(1)
	cpu, gpu := d.evaluate(d.sys, c.Call)
	if c.Resident && c.Strategy == xfer.Unified {
		gpu -= d.firstTouchSavings(c.Call)
		if gpu <= 0 {
			gpu = 1e-12 // placement savings can never make compute free
		}
	}
	dec := Decision{Device: CPU, CPUSeconds: cpu, GPUSeconds: gpu, Speedup: cpu / gpu}
	switch {
	case gpu*(1+margin) < cpu:
		dec.Device = GPU
	case gpu < cpu:
		dec.Held = true
		d.holds.Add(1)
	}
	return dec
}

// firstTouchSavings is the modeled data-movement time a resident working
// set avoids under USM: the full first-touch migration minus the
// residual-faults-only cost of an already-placed working set.
func (d *Dispatcher) firstTouchSavings(c advisor.Call) float64 {
	es := c.Precision.ElemSize()
	var toDev, fromDev int64
	if c.Kernel == core.GEMV {
		toDev, fromDev = xfer.GemvBytes(es, c.M, c.N)
	} else {
		toDev, fromDev = xfer.GemmBytes(es, c.M, c.N, c.K)
	}
	p, link := d.sys.GPU.USM, d.sys.GPU.Link
	return p.MoveSeconds(link, toDev, fromDev, c.Count) -
		p.ResidentMoveSeconds(link, toDev, fromDev, c.Count)
}

// Stats snapshots the dispatcher's counters.
func (d *Dispatcher) Stats() Stats {
	return Stats{
		Decisions:   d.decisions.Load(),
		CacheHits:   d.cacheHits.Load(),
		SharedHits:  d.sharedHits.Load(),
		Evaluations: d.evaluations.Load(),
		Holds:       d.holds.Load(),
	}
}

// System returns the system this dispatcher routes for.
func (d *Dispatcher) System() systems.System { return d.sys }
