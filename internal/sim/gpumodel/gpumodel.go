// Package gpumodel provides the calibrated GPU-side timing model: a
// roofline (vector peak vs HBM bandwidth) with an occupancy ramp, per-kernel
// launch latency, and the three data transfer strategies of §III-B2
// composed from the xfer and usm models.
//
// Occupancy ramp: a GPU needs enough independent output tiles in flight to
// hide latency; small problems leave most of the device idle. Efficiency is
// modeled as p / (p + R) where p is the number of output elements (m*n) and
// R the device's OccupancyRampElems. This single knob produces the paper's
// observation that small problems run far below GPU peak and that the
// crossover against the CPU happens where the ramp meets the CPU's achieved
// rate.
//
// Library quirks reproduce the rocBLAS artifacts of §IV-C: the SGEMM
// Transfer-Once performance jump at {32,32,2560}, and the DGEMM flat-line
// at a low GFLOP/s for the same problem type.
package gpumodel

import (
	"math"

	"repro/internal/faultinject"
	"repro/internal/flops"
	"repro/internal/sim/efftab"
	"repro/internal/sim/hw"
	"repro/internal/sim/usm"
	"repro/internal/sim/xfer"
)

// Quirk adjusts the modeled achieved GFLOP/s for one device kernel.
type Quirk func(elemSize, m, n, k int, gflops float64) float64

// Profile describes one GPU BLAS library's behaviour.
type Profile struct {
	Name string
	// MaxEff is the asymptotic fraction of vector peak reached.
	MaxEff float64
	// GemmQuirk and GemvQuirk inject documented artifacts; nil means none.
	GemmQuirk Quirk
	GemvQuirk Quirk
	// SyncPerIterUS is per-iteration stream synchronisation overhead on top
	// of the raw kernel launch.
	SyncPerIterUS float64
	// SplitKGrain, when non-zero, models split-K GEMM kernels: a deep-K
	// problem is split into k/grain partial products computed in parallel,
	// multiplying the available output parallelism. This is what keeps thin
	// M=N, K>>M problems GPU-friendly (Table V) despite tiny m*n.
	SplitKGrain float64
}

// Model is a GPU device + link + library + USM heuristics, optionally in
// the Fig-7 implicit-scaling mode.
type Model struct {
	GPU  hw.GPUSpec
	Link hw.LinkSpec
	Lib  Profile
	USM  usm.Profile
	// ImplicitScaling views both tiles of a two-tile device as one (Fig 7):
	// twice the raw compute, but cross-tile traffic wrecks efficiency and
	// makes it inconsistent.
	ImplicitScaling bool
	// Inject, when non-nil, is consulted by Time (so TimeGemm/TimeGemv)
	// before each modeled call: once for the device kernel (Backend
	// "gpu") and once for its data movement (Backend "xfer" for explicit
	// strategies, "usm" for Unified). Nil — the normal configuration —
	// adds a single nil check and nothing else.
	Inject faultinject.Point
	// Eff, when non-nil, switches the model to blackbox mode: the
	// occupancy ramp is interpolated from the table (for a GPU this is the
	// synthetic table sampled from a reference device's analytic ramp —
	// there is no GPU to measure on) and library quirks and split-K
	// adjustments are skipped. Launch latency, sync overhead, the HBM
	// roofline, transfers and USM heuristics stay analytic. A missing
	// (kernel, precision) falls back to the roofline.
	Eff *efftab.Table
}

// achievedGemvGF returns the modeled GEMV compute rate for m rows of
// parallelism.
func (g *Model) achievedGemvGF(elemSize int, rows float64) float64 {
	peak := g.GPU.Peak(elemSize)
	eff := g.Lib.MaxEff * rows / (rows + g.GPU.GemvRampRows)
	gf := peak * eff
	if g.ImplicitScaling {
		gf *= 2 * 0.38
	}
	return math.Max(gf, 1e-6)
}

// achievedGF returns the modeled compute rate for one kernel of the given
// output parallelism and FLOP volume.
func (g *Model) achievedGF(elemSize int, m, n, k int, outElems float64) float64 {
	peak := g.GPU.Peak(elemSize)
	if g.Lib.SplitKGrain > 0 && float64(k) > g.Lib.SplitKGrain {
		outElems *= float64(k) / g.Lib.SplitKGrain
	}
	eff := g.Lib.MaxEff * outElems / (outElems + g.GPU.OccupancyRampElems)
	gf := peak * eff
	if g.ImplicitScaling {
		// Twice the tiles, but cross-tile communication more than halves
		// delivered efficiency and adds a size-dependent wobble (Fig 7's
		// "much lower and less-consistent performance").
		wobble := 0.85 + 0.15*math.Sin(float64(m)*0.37+float64(n)*0.11)
		gf *= 2 * 0.38 * wobble
	}
	return math.Max(gf, 1e-6)
}

// blackboxGF interpolates the blackbox compute rate for one device
// kernel: device peak times library asymptote times the table's relative
// efficiency for the call's shape class and size. Split-K and quirks are
// skipped — the table curve stands in for the whole kernel-selection
// story. Callers check Eff != nil first, so roofline mode never pays for
// the shape classification; !ok reports a table that lacks the (kernel,
// precision).
func (g *Model) blackboxGF(kernel string, elemSize int, class string, size float64) (float64, bool) {
	eff, ok := g.Eff.Eff(kernel, efftab.PrecisionToken(elemSize), class, size)
	if !ok {
		return 0, false
	}
	gf := g.GPU.Peak(elemSize) * g.Lib.MaxEff * eff
	if g.ImplicitScaling {
		// Same two-tiles-at-reduced-efficiency factor as the analytic path,
		// minus the wobble: the table has no concept of cross-tile phase.
		gf *= 2 * 0.38
	}
	return math.Max(gf, 1e-6), true
}

// RampEff exposes the analytic occupancy ramp as an efftab.ModelEffFunc
// over (kernel, class, characteristic size): the relative-efficiency
// factor that Lib.MaxEff multiplies, evaluated at the class's canonical
// (real-valued) shape. blob-calibrate samples it to synthesize the GPU
// table and replays it in the fidelity gate, so synthesis and check
// share one definition. Precision does not enter: the ramp is a pure
// parallelism story.
func RampEff(spec hw.GPUSpec) efftab.ModelEffFunc {
	return func(kernel, _, class string, size float64) (float64, bool) {
		if size <= 0 {
			return 0, false
		}
		switch kernel {
		case "gemm":
			m, n, _ := efftab.ShapeGemmF(class, size)
			out := m * n
			return out / (out + spec.OccupancyRampElems), true
		case "gemv":
			rows, _ := efftab.ShapeGemvF(class, size)
			return rows / (rows + spec.GemvRampRows), true
		}
		return 0, false
	}
}

// kernelUS returns the on-device time of one kernel invocation (launch +
// max(compute, memory)).
func (g *Model) kernelUS(elemSize int, fl int64, devBytes int64, gf float64) float64 {
	computeUS := float64(fl) / gf / 1e3
	memUS := float64(devBytes) / (g.GPU.HBMGBs * 1e3)
	return g.GPU.LaunchLatencyUS + g.Lib.SyncPerIterUS + math.Max(computeUS, memUS)
}

// Breakdown is one GEMM or GEMV call group's GPU time with the device
// kernel priced once. The three transfer strategies run the same kernel
// and differ only in how data moves (§III-B2), so the kernel term —
// efficiency lookup, library quirk, roofline max — is computed here once
// and each strategy adds its own movement on demand through Seconds or
// Time. Build one with GemmBreakdown or GemvBreakdown.
//
// Keep it at four words: the compiler passes a struct that small in
// registers, while a larger one is copied through memory on every call,
// which costs single-strategy callers (GemmSeconds and friends) more
// than sharing the kernel term saves. That is why the fault-injection
// site is an argument of Time rather than a field here.
type Breakdown struct {
	// KernelUS is the on-device time for all iterations in microseconds:
	// per call launch + sync + max(compute, HBM), times Iters.
	KernelUS float64
	// ToDev and FromDev are the bytes one round of explicit copies moves
	// host-to-device and back; USM migrates the same working set.
	ToDev, FromDev int64
	// Iters is the iteration count. 0 marks an empty call group (no
	// iterations or an empty output), which costs nothing under every
	// strategy.
	Iters int
}

// GemmBreakdown prices the device kernel of i iterations of one GEMM.
//
//blobvet:hotpath
func (g *Model) GemmBreakdown(elemSize, m, n, k int, beta0 bool, iters int) Breakdown {
	if iters < 1 || m <= 0 || n <= 0 {
		return Breakdown{}
	}
	beta := flops.Beta{IsZero: beta0}
	fl := flops.Gemm(m, n, k, beta)
	devBytes := flops.GemmBytes(m, n, k, elemSize, beta)
	var gf float64
	blackbox := false
	if g.Eff != nil {
		gf, blackbox = g.blackboxGF("gemm", elemSize, efftab.ClassifyGemm(m, n, k), efftab.GemmSize(m, n, k))
	}
	if !blackbox {
		gf = g.achievedGF(elemSize, m, n, k, float64(m)*float64(n))
		if g.Lib.GemmQuirk != nil {
			gf = math.Max(g.Lib.GemmQuirk(elemSize, m, n, k, gf), 1e-6)
		}
	}
	toDev, fromDev := xfer.GemmBytes(elemSize, m, n, k)
	return Breakdown{
		KernelUS: g.kernelUS(elemSize, fl, devBytes, gf) * float64(iters),
		ToDev:    toDev,
		FromDev:  fromDev,
		Iters:    iters,
	}
}

// GemvBreakdown prices the device kernel of i iterations of one GEMV.
//
//blobvet:hotpath
func (g *Model) GemvBreakdown(elemSize, m, n int, beta0 bool, iters int) Breakdown {
	if iters < 1 || m <= 0 || n <= 0 {
		return Breakdown{}
	}
	beta := flops.Beta{IsZero: beta0}
	fl := flops.Gemv(m, n, beta)
	devBytes := flops.GemvBytes(m, n, elemSize, beta)
	// GEMV parallelism is one output element per row; devices ramp on rows
	// via the dedicated GemvRampRows constant.
	var gf float64
	blackbox := false
	if g.Eff != nil {
		gf, blackbox = g.blackboxGF("gemv", elemSize, efftab.ClassifyGemv(m, n), efftab.GemvSize(m, n))
	}
	if !blackbox {
		gf = g.achievedGemvGF(elemSize, float64(m))
		if g.Lib.GemvQuirk != nil {
			gf = math.Max(g.Lib.GemvQuirk(elemSize, m, n, 0, gf), 1e-6)
		}
	}
	toDev, fromDev := xfer.GemvBytes(elemSize, m, n)
	return Breakdown{
		KernelUS: g.kernelUS(elemSize, fl, devBytes, gf) * float64(iters),
		ToDev:    toDev,
		FromDev:  fromDev,
		Iters:    iters,
	}
}

// Seconds returns the call group's modeled time under strategy s: the
// shared kernel term plus s's data movement — explicit copies for
// xfer.Rounds(s) rounds over the link, or USM page migration.
//
//blobvet:hotpath
func (g *Model) Seconds(b Breakdown, s xfer.Strategy) float64 {
	if b.Iters < 1 {
		return 0
	}
	var moveUS float64
	if s == xfer.Unified {
		moveUS = g.USM.MoveSeconds(g.Link, b.ToDev, b.FromDev, b.Iters) * 1e6
	} else if rounds := xfer.Rounds(s, b.Iters); rounds > 0 {
		per := g.Link.TransferTimeUS(b.ToDev) + g.Link.TransferTimeUS(b.FromDev)
		moveUS = per * float64(rounds)
	}
	return (b.KernelUS + moveUS) * 1e-6
}

// Time is Seconds behind the fault-injection point: the device kernel
// site (Backend "gpu", Kernel kernel — "gemm" or "gemv" — and Dim dim,
// the call's largest dimension) is consulted first, then the movement
// site for the strategy ("xfer" for explicit copies, "usm" for Unified).
// The first fault error wins; latency faults from both sites accumulate
// onto the modeled time. Callers that can fail — internal/core's
// resilient sweep loop — use this, once per strategy, over one breakdown
// per sample.
//
//blobvet:hotpath
func (g *Model) Time(b Breakdown, s xfer.Strategy, kernel string, dim int) (float64, error) {
	extra, err := g.consult(s, kernel, dim)
	if err != nil {
		return 0, err
	}
	return g.Seconds(b, s) + extra, nil
}

// GemmSeconds models i iterations of one GEMM under the given strategy.
func (g *Model) GemmSeconds(s xfer.Strategy, elemSize, m, n, k int, beta0 bool, iters int) float64 {
	return g.Seconds(g.GemmBreakdown(elemSize, m, n, k, beta0, iters), s)
}

// GemvSeconds models i iterations of one GEMV under the given strategy.
func (g *Model) GemvSeconds(s xfer.Strategy, elemSize, m, n int, beta0 bool, iters int) float64 {
	return g.Seconds(g.GemvBreakdown(elemSize, m, n, beta0, iters), s)
}

// TimeGemm is GemmSeconds behind the fault-injection point (see Time;
// Kernel "gemm", Dim max(m,n,k)). The plain GemmSeconds signature stays
// for calibration code that never injects.
func (g *Model) TimeGemm(s xfer.Strategy, elemSize, m, n, k int, beta0 bool, iters int) (float64, error) {
	return g.Time(g.GemmBreakdown(elemSize, m, n, k, beta0, iters), s, "gemm", max(m, n, k))
}

// TimeGemv is GemvSeconds behind the fault-injection point (see Time;
// Kernel "gemv", Dim max(m,n)).
func (g *Model) TimeGemv(s xfer.Strategy, elemSize, m, n int, beta0 bool, iters int) (float64, error) {
	return g.Time(g.GemvBreakdown(elemSize, m, n, beta0, iters), s, "gemv", max(m, n, 0))
}

// consult asks the injection point about the device-kernel site and the
// strategy's movement site (usm under Unified, xfer otherwise),
// accumulating injected latency.
func (g *Model) consult(s xfer.Strategy, kernel string, dim int) (float64, error) {
	if g.Inject == nil {
		return 0, nil
	}
	extra, err := g.Inject.At(faultinject.Site{
		Backend: faultinject.BackendGPU, Kernel: kernel, Dim: dim,
	})
	if err != nil {
		return 0, err
	}
	move := faultinject.BackendXfer
	if s == xfer.Unified {
		move = faultinject.BackendUSM
	}
	moveExtra, err := g.Inject.At(faultinject.Site{Backend: move, Kernel: kernel, Dim: dim})
	if err != nil {
		return 0, err
	}
	return extra + moveExtra, nil
}

// GemmGFLOPS returns modeled GFLOP/s including transfer time, the quantity
// GPU-BLOB reports (§III-A: "GPU time measurements also include the time
// taken to move data to and from the GPU").
func (g *Model) GemmGFLOPS(s xfer.Strategy, elemSize, m, n, k int, beta0 bool, iters int) float64 {
	sec := g.GemmSeconds(s, elemSize, m, n, k, beta0, iters)
	return flops.GFLOPS(int64(iters)*flops.Gemm(m, n, k, flops.Beta{IsZero: beta0}), sec)
}

// GemvGFLOPS returns modeled GFLOP/s including transfer time.
func (g *Model) GemvGFLOPS(s xfer.Strategy, elemSize, m, n int, beta0 bool, iters int) float64 {
	sec := g.GemvSeconds(s, elemSize, m, n, beta0, iters)
	return flops.GFLOPS(int64(iters)*flops.Gemv(m, n, flops.Beta{IsZero: beta0}), sec)
}

// --- Library profiles -------------------------------------------------------

// rocBLASGemmQuirks reproduces §IV-C on LUMI: for the M=N=32 problem type,
// SGEMM shows "a large Transfer-Once GPU performance jump at {32,32,2560}"
// while DGEMM "flat-lines at a low GFLOP/s value very early on".
func rocBLASGemmQuirks(elemSize, m, n, k int, gf float64) float64 {
	if elemSize == 8 {
		// rocBLAS DGEMM delivers a lower fraction of the GCD's vector peak
		// than SGEMM does.
		gf *= 0.8
		if m == 32 && n == 32 {
			// DGEMM flat-line for the M=N=32 problem type (§IV-C): cap at a
			// low absolute rate.
			return math.Min(gf, 45)
		}
		return gf
	}
	if m == 32 && n == 32 && k >= 2560 {
		// The SGEMM Transfer-Once performance jump at {32,32,2560} (§IV-C):
		// rocBLAS switches to a split-K kernel for this shape.
		return gf * 15.0
	}
	return gf
}

// cuBLASSmallKernelFloor reproduces the GH200's remarkably constant
// {26,26,26} offload threshold (Table III): below a dimension of ~26 cuBLAS
// falls back to a non-tiled kernel whose throughput is a small fraction of
// the tiled path, so the CPU keeps those sizes regardless of iteration
// count.
func cuBLASSmallKernelFloor(_ int, m, n, k int, gf float64) float64 {
	if geomMean3(m, n, k) < 26 {
		return gf * 0.04
	}
	return gf
}

func geomMean3(m, n, k int) float64 {
	if k <= 0 {
		k = 1
	}
	if m <= 0 || n <= 0 {
		return 0
	}
	return math.Cbrt(float64(m) * float64(n) * float64(k))
}

// CuBLAS is cuBLAS 24.5 on the GH200.
var CuBLAS = Profile{
	Name:          "cuBLAS 24.5",
	MaxEff:        0.82,
	SyncPerIterUS: 1.0,
	SplitKGrain:   512,
	GemmQuirk:     cuBLASSmallKernelFloor,
}

// rocBLASGemvF64 models rocBLAS's weaker DGEMV kernels: the paper's LUMI
// DGEMV thresholds sit well above the SGEMV ones (Table IV), which requires
// the double-precision GEMV path to deliver a lower fraction of peak.
func rocBLASGemvF64(elemSize, _, _, _ int, gf float64) float64 {
	if elemSize == 8 {
		return gf * 0.30
	}
	return gf
}

// RocBLAS is rocBLAS 5.2.3 on one MI250X GCD.
var RocBLAS = Profile{
	Name:          "rocBLAS 5.2.3",
	MaxEff:        0.75,
	SyncPerIterUS: 2.0,
	GemmQuirk:     rocBLASGemmQuirks,
	GemvQuirk:     rocBLASGemvF64,
}

// OneMKLGPU is oneMKL 2024.1 on one PVC tile.
var OneMKLGPU = Profile{
	Name:          "oneMKL 2024.1 (GPU)",
	MaxEff:        0.78,
	SyncPerIterUS: 2.0,
	SplitKGrain:   512,
}
