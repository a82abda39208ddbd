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
// timing models the advisor exposes. Three mechanisms keep that
// per-call consultation cheap and stable:
//
//   - Memoization. Applications replay the same handful of call shapes
//     millions of times, so verdicts are memoized in a compact
//     seen-shape structure: a Bloom filter answers "never seen" without
//     touching shared state (the way Stream-K++ uses Bloom filters to
//     skip already-covered work, PAPERS.md), and a small sharded, set-associative
//     exact cache serves repeat shapes lock-light and allocation-free.
//
//   - Hysteresis. Near the offload threshold the two modeled times are
//     within noise of each other, and a raw per-call argmin would flap
//     between devices — costly when each flip moves a working set. A
//     verdict only switches device when the challenger wins by a
//     configurable margin, so a ramp of shapes crossing the threshold
//     switches at most once in each direction.
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

// The two targets a call can be routed to. The zero value is reserved
// so the hysteresis state can distinguish "no verdict yet".
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
	// Speedup is CPUSeconds/GPUSeconds: values above 1 favour the GPU.
	Speedup float64
	// Cached reports the verdict was served from the seen-shape cache
	// (or shared with a concurrent evaluation of the same shape) rather
	// than evaluated against the timing models.
	Cached bool
	// Held reports that hysteresis kept the previous device even though
	// the raw model comparison preferred the other one.
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
	// Margin is the hysteresis band: once a device holds a shape-class
	// verdict, the other device must be better by this relative margin
	// to take it over (default 0.10, i.e. 10% faster).
	Margin float64
	// CacheEntries bounds the exact seen-shape cache (default 8192,
	// rounded up to a power of two; minimum 256).
	CacheEntries int
	// Evaluate replaces the timing-model evaluation (tests only).
	Evaluate EvaluateFunc
}

// Stats is a snapshot of the dispatcher's counters.
type Stats struct {
	// Decisions counts calls routed (errors excluded).
	Decisions uint64
	// CacheHits counts decisions served from the exact seen-shape cache.
	CacheHits uint64
	// SharedHits counts decisions that joined a concurrent evaluation of
	// the same shape instead of evaluating twice.
	SharedHits uint64
	// BloomNegatives counts decisions where the Bloom filter proved the
	// shape had never been seen, skipping the exact-cache probe.
	BloomNegatives uint64
	// Evaluations counts timing-model evaluations — at most one per
	// distinct shape while it stays cached.
	Evaluations uint64
	// Holds counts verdicts where hysteresis kept the incumbent device
	// against the raw comparison; Switches counts device changes.
	Holds    uint64
	Switches uint64
}

// classCount is the number of hysteresis shape classes:
// kernel x precision x transfer strategy.
const classCount = 2 * 2 * 3

// Dispatcher routes BLAS calls between CPU and GPU for one system.
// Construct with New; methods are safe for concurrent use.
type Dispatcher struct {
	sys      systems.System
	evaluate EvaluateFunc
	margin   float64
	cache    *shapeCache

	// last holds the hysteresis state per shape class: 0 (no verdict
	// yet) or a Device. Concurrent updates race benignly — the state is
	// a stabilizer, not an invariant — but single-threaded ramps, the
	// case hysteresis exists for, are deterministic.
	last [classCount]atomic.Uint32

	inflightMu sync.Mutex
	inflight   map[uint64]*inflightCall

	decisions, cacheHits, sharedHits, bloomNegatives atomic.Uint64
	evaluations, holds, switches                     atomic.Uint64
}

// inflightCall is one in-progress evaluation that concurrent callers of
// the same shape wait on instead of evaluating again.
type inflightCall struct {
	done chan struct{}
	dec  Decision
}

// New builds a Dispatcher for one system.
func New(opts Options) *Dispatcher {
	if opts.Evaluate == nil {
		opts.Evaluate = advisor.Times
	}
	if opts.Margin <= 0 {
		opts.Margin = 0.10
	}
	return &Dispatcher{
		sys:      opts.System,
		evaluate: opts.Evaluate,
		margin:   opts.Margin,
		cache:    newShapeCache(opts.CacheEntries),
		inflight: map[uint64]*inflightCall{},
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

// Decide routes one call. The hot path — a shape seen before — is two
// atomic Bloom probes and one sharded cache lookup, allocation-free; a
// cold shape evaluates the timing models once, applies the residency
// adjustment and hysteresis, and memoizes the verdict. A cancelled
// context returns its error without touching dispatcher state.
//
//blobvet:hotpath
func (d *Dispatcher) Decide(ctx context.Context, c Call) (Decision, error) {
	if err := ctx.Err(); err != nil {
		return Decision{}, err
	}
	if err := c.Validate(); err != nil {
		return Decision{}, err
	}
	key := shapeKey(c)
	if d.cache.mightContain(key) {
		if dec, ok := d.cache.get(key); ok {
			d.decisions.Add(1)
			d.cacheHits.Add(1)
			dec.Cached = true
			return dec, nil
		}
	} else {
		d.bloomNegatives.Add(1)
	}
	dec := d.computeShared(key, c)
	d.decisions.Add(1)
	return dec, nil
}

// computeShared evaluates one cold shape, deduplicating concurrent
// callers of the same key singleflight-style: the first caller becomes
// the leader and evaluates; the rest wait on its result. The cache is
// consulted again under inflightMu: a leader stores its verdict before it
// retires its flight, so a caller that missed the cache while that flight
// was still running finds the verdict here instead of starting a second
// evaluation.
func (d *Dispatcher) computeShared(key uint64, c Call) Decision {
	d.inflightMu.Lock()
	if dec, ok := d.cache.get(key); ok {
		d.inflightMu.Unlock()
		d.cacheHits.Add(1)
		dec.Cached = true
		return dec
	}
	if fl, ok := d.inflight[key]; ok {
		d.inflightMu.Unlock()
		<-fl.done
		d.sharedHits.Add(1)
		dec := fl.dec
		dec.Cached = true
		return dec
	}
	fl := &inflightCall{done: make(chan struct{})}
	d.inflight[key] = fl
	d.inflightMu.Unlock()

	fl.dec = d.evaluateCall(c)
	d.cache.put(key, fl.dec)

	d.inflightMu.Lock()
	delete(d.inflight, key)
	d.inflightMu.Unlock()
	close(fl.done)
	return fl.dec
}

// evaluateCall prices the call, applies the USM residency adjustment and
// hysteresis, and shapes the Decision.
func (d *Dispatcher) evaluateCall(c Call) Decision {
	d.evaluations.Add(1)
	cpu, gpu := d.evaluate(d.sys, c.Call)
	if c.Resident && c.Strategy == xfer.Unified {
		gpu -= d.firstTouchSavings(c.Call)
		if gpu <= 0 {
			gpu = 1e-12 // placement savings can never make compute free
		}
	}
	raw := CPU
	if gpu < cpu {
		raw = GPU
	}
	dev := d.applyHysteresis(classIndex(c), raw, cpu, gpu)
	return Decision{
		Device:     dev,
		CPUSeconds: cpu,
		GPUSeconds: gpu,
		Speedup:    cpu / gpu,
		Held:       dev != raw,
	}
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

// applyHysteresis resolves the raw model preference against the shape
// class's incumbent device: with no incumbent, or agreement, the raw
// verdict stands; otherwise the challenger must win by the margin or
// the incumbent is held.
func (d *Dispatcher) applyHysteresis(class int, raw Device, cpu, gpu float64) Device {
	for {
		prev := Device(d.last[class].Load())
		chosen := raw
		if prev != 0 && prev != raw {
			switches := false
			if raw == GPU {
				switches = gpu*(1+d.margin) < cpu
			} else {
				switches = cpu*(1+d.margin) < gpu
			}
			if !switches {
				chosen = prev
			}
		}
		if d.last[class].CompareAndSwap(uint32(prev), uint32(chosen)) {
			if chosen != raw {
				d.holds.Add(1)
			} else if prev != 0 && chosen != prev {
				d.switches.Add(1)
			}
			return chosen
		}
	}
}

// classIndex maps a call to its hysteresis shape class:
// (kernel, precision, strategy).
func classIndex(c Call) int {
	k := 0
	if c.Kernel == core.GEMV {
		k = 1
	}
	p := 0
	if c.Precision == core.F64 {
		p = 1
	}
	return (k*2+p)*3 + int(c.Strategy)
}

// Stats snapshots the dispatcher's counters.
func (d *Dispatcher) Stats() Stats {
	return Stats{
		Decisions:      d.decisions.Load(),
		CacheHits:      d.cacheHits.Load(),
		SharedHits:     d.sharedHits.Load(),
		BloomNegatives: d.bloomNegatives.Load(),
		Evaluations:    d.evaluations.Load(),
		Holds:          d.holds.Load(),
		Switches:       d.switches.Load(),
	}
}

// System returns the system this dispatcher routes for.
func (d *Dispatcher) System() systems.System { return d.sys }
