// Package cpumodel provides the calibrated CPU-side timing model used by the
// simulated heterogeneous systems.
//
// The model is a roofline with three refinements the paper's results hinge
// on (§IV):
//
//  1. Threading heuristics. Libraries differ in how many threads they devote
//     to a problem: NVPL "seemingly attempts to use all available threads for
//     every problem size, whilst ArmPL scales the thread count with the
//     problem size" (§IV-A), and AOCL does not parallelise GEMV at all
//     (§IV-B, the perf-stat 0.89-CPUs observation). Thread count sets both
//     the usable fraction of peak and the per-call dispatch overhead.
//
//  2. Cache residency across iterations. GPU-BLOB times i back-to-back
//     iterations of the same call; after the first (cold) iteration the
//     working set is cache-resident if it fits, which is what makes CPU GEMV
//     so strong until the matrix spills the LLC (the DAWN performance cliff
//     between M=N=3000 and 3500, §IV-B footnote).
//
//  3. Library quirks. Documented heuristic artifacts — oneMKL's square-GEMM
//     performance drop at {629,629,629} (Fig 2), NVPL's GEMV step at
//     {256,256} (Fig 5) and at {2048,32} for thin shapes (§IV-D) — are
//     injected as explicit, named perturbations of the achieved GFLOP/s.
//
// All times are computed in microseconds internally and returned in seconds.
package cpumodel

import (
	"math"

	"repro/internal/faultinject"
	"repro/internal/flops"
	"repro/internal/sim/efftab"
	"repro/internal/sim/hw"
)

// ThreadHeuristic selects how a library chooses its thread count.
type ThreadHeuristic int

// Threading heuristics observed in the paper.
const (
	// AllThreads always uses every configured thread (NVPL, AOCL GEMM).
	AllThreads ThreadHeuristic = iota
	// ScaleWithWork grows the thread count with the problem (ArmPL, oneMKL,
	// OpenBLAS).
	ScaleWithWork
	// SingleThread never parallelises (AOCL GEMV; single-threaded builds).
	SingleThread
)

// Quirk adjusts the modeled achieved GFLOP/s for one call. It receives the
// element size, problem dimensions (k == 0 for GEMV) and the pre-quirk
// achieved GFLOP/s, and returns the adjusted value.
type Quirk func(elemSize, m, n, k int, gflops float64) float64

// Profile describes one CPU BLAS library's behaviour.
type Profile struct {
	Name string
	// Heuristic governs GEMM thread selection.
	Heuristic ThreadHeuristic
	// GemvHeuristic governs GEMV thread selection (AOCL: SingleThread).
	GemvHeuristic ThreadHeuristic
	// MaxEff is the asymptotic fraction of peak FLOP/s the library reaches.
	MaxEff float64
	// MaxEffF64 overrides MaxEff for double precision when non-zero; some
	// libraries' FP64 kernels deliver a lower fraction of peak than their
	// FP32 ones (AOCL on LUMI, §IV-A).
	MaxEffF64 float64
	// RampFlopsPerThread is how many FLOPs per participating thread a call
	// needs to reach half of MaxEff; it models parallel efficiency loss on
	// small problems.
	RampFlopsPerThread float64
	// RampPower shapes the efficiency ramp, eff = MaxEff / (1 + (R*t/fl)^P).
	// 1 (the default when 0) is a standard saturating ramp; lower values
	// stretch the transition over more size decades (observed for BLIS).
	RampPower float64
	// QuirkWarmIters bounds how many iterations the GemmQuirk persists: the
	// artifacts behind it (algorithm-switch repacking and similar) amortise
	// once the same call repeats. 0 means the quirk applies to every
	// iteration.
	QuirkWarmIters int
	// ScaleGrainFlops is, for ScaleWithWork, the FLOPs assigned per thread
	// when choosing the thread count.
	ScaleGrainFlops float64
	// GemvScaleGrainFlops overrides ScaleGrainFlops for GEMV when non-zero:
	// bandwidth-bound kernels are worth threading at far fewer FLOPs per
	// thread than compute-bound ones.
	GemvScaleGrainFlops float64
	// DispatchBaseUS + DispatchPerThreadUS*threads is the per-call overhead
	// (argument checking, thread wake-up, barrier).
	DispatchBaseUS      float64
	DispatchPerThreadUS float64
	// CacheFraction is the effective share of the LLC available to the
	// working set (the rest holds code, packing buffers, other data).
	CacheFraction float64
	// WarmComputeBonus is the fractional speedup of warm iterations over the
	// first (cold) one for compute-bound kernels: packed panels and TLBs are
	// hot, threads are spinning.
	WarmComputeBonus float64
	// GemmQuirk adjusts achieved GFLOP/s; GemvQuirk adjusts the warm
	// (cache-resident) streaming bandwidth. Nil means no quirk.
	GemmQuirk Quirk
	GemvQuirk Quirk
}

// Model is a CPU socket driven by a library profile at a configured thread
// count (the OMP_NUM_THREADS / BLIS_NUM_THREADS of the paper's runs).
type Model struct {
	CPU     hw.CPUSpec
	Lib     Profile
	Threads int
	// Inject, when non-nil, is consulted by TimeGemm/TimeGemv before each
	// modeled call (Backend "cpu"); nil — the normal configuration — adds
	// a single nil check and nothing else. Arm it with a faultinject.Plan
	// to rehearse backend failures.
	Inject faultinject.Point
	// Eff, when non-nil, switches the model to blackbox mode: the
	// size-dependent efficiency curve is interpolated from the measured
	// table instead of the analytic occupancy ramp, and library quirks are
	// skipped (the measurements already contain whatever quirks the real
	// kernels have). Dispatch overhead and thread selection stay analytic.
	// A (kernel, precision) the table lacks falls back to the roofline.
	Eff *efftab.Table
}

// gemmThreads returns the thread count the library would use for a GEMM of
// the given FLOP volume.
func (mo *Model) gemmThreads(fl int64) int {
	return mo.pickThreads(mo.Lib.Heuristic, fl, mo.Lib.ScaleGrainFlops)
}

// gemvThreads returns the thread count for a GEMV of the given FLOP volume.
func (mo *Model) gemvThreads(fl int64) int {
	grain := mo.Lib.GemvScaleGrainFlops
	if grain <= 0 {
		grain = mo.Lib.ScaleGrainFlops
	}
	return mo.pickThreads(mo.Lib.GemvHeuristic, fl, grain)
}

func (mo *Model) pickThreads(h ThreadHeuristic, fl int64, grain float64) int {
	t := mo.Threads
	if t < 1 {
		t = 1
	}
	switch h {
	case SingleThread:
		return 1
	case ScaleWithWork:
		if grain <= 0 {
			grain = 4e5
		}
		byWork := int(float64(fl)/grain) + 1
		if byWork < t {
			t = byWork
		}
		if t < 1 {
			t = 1
		}
		return t
	default: // AllThreads
		return t
	}
}

// memBWGBs returns the DRAM bandwidth reachable with t threads: each core
// can pull at most PerCoreMemBWGBs, and the socket saturates well before
// all cores participate.
func (mo *Model) memBWGBs(t int) float64 {
	sat := mo.CPU.MemBWGBs * float64(t) / (float64(t) + 4)
	return math.Min(sat, mo.CPU.PerCoreMemBWGBs*float64(t))
}

// cacheBWGBs returns the aggregate LLC bandwidth reachable with t threads.
func (mo *Model) cacheBWGBs(t int) float64 {
	sat := mo.CPU.CacheBWGBs * float64(t) / (float64(t) + 4)
	return math.Min(sat, mo.CPU.PerCoreCacheBWGBs*float64(t))
}

// warmBWGBs blends cache and DRAM bandwidth by working-set residency: fully
// cache-resident sets stream at LLC speed, sets well beyond the effective
// capacity at DRAM speed, with a linear transition as the set spills.
// cacheQuirk scales only the cache-resident side: the blocking-heuristic
// artifacts it models vanish once the data streams from DRAM anyway.
func (mo *Model) warmBWGBs(t int, workingSet int64, cacheQuirk float64) float64 {
	capacity := mo.Lib.CacheFraction * mo.CPU.CacheMB * 1e6
	if capacity <= 0 {
		return mo.memBWGBs(t)
	}
	x := float64(workingSet) / capacity
	cache := mo.cacheBWGBs(t) * cacheQuirk
	mem := mo.memBWGBs(t)
	switch {
	case x <= 0.8:
		return cache
	case x >= 1.4:
		return mem
	default:
		f := (x - 0.8) / 0.6
		return cache + f*(mem-cache)
	}
}

// dispatchUS is the per-call overhead at t threads.
func (mo *Model) dispatchUS(t int) float64 {
	return mo.Lib.DispatchBaseUS + mo.Lib.DispatchPerThreadUS*float64(t)
}

// achievedGemmGF returns the modeled compute rate for one GEMM call,
// before any library quirk, from the parallel ramp: t threads reach MaxEff
// only once the call carries enough FLOPs per thread,
// eff = MaxEff / (1 + (R*t/fl)^P). Small problems on many threads are
// genuinely slow in absolute terms — the NVPL all-threads-always behaviour
// of Fig 3.
func (mo *Model) achievedGemmGF(elemSize int, t int, fl int64) float64 {
	peak := mo.CPU.PeakGFLOPS(elemSize) * float64(t) / float64(mo.CPU.Cores)
	ramp := mo.Lib.RampFlopsPerThread * float64(t)
	power := mo.Lib.RampPower
	if power <= 0 {
		power = 1
	}
	maxEff := mo.Lib.MaxEff
	if elemSize == 8 && mo.Lib.MaxEffF64 > 0 {
		maxEff = mo.Lib.MaxEffF64
	}
	eff := maxEff / (1 + math.Pow(ramp/float64(fl), power))
	return math.Max(peak*eff, 1e-6)
}

// maxEffFor is the library's asymptotic fraction of peak at this
// precision.
func (mo *Model) maxEffFor(elemSize int) float64 {
	if elemSize == 8 && mo.Lib.MaxEffF64 > 0 {
		return mo.Lib.MaxEffF64
	}
	return mo.Lib.MaxEff
}

// blackboxGemmSeconds prices a GEMM from the measured efficiency table:
// the achieved rate is the socket peak times the library asymptote times
// the interpolated relative efficiency for the call's shape class and
// characteristic size. The table was measured on warmed, repeated calls,
// so cache-residency and warm-up structure is already inside the curve;
// only the per-call dispatch overhead stays analytic. Reports !ok when
// the table lacks the (kernel, precision), sending the caller back to
// the roofline.
func (mo *Model) blackboxGemmSeconds(elemSize, m, n, k int, beta0 bool, iters int) (float64, bool) {
	eff, ok := mo.Eff.Eff("gemm", efftab.PrecisionToken(elemSize), efftab.ClassifyGemm(m, n, k), efftab.GemmSize(m, n, k))
	if !ok {
		return 0, false
	}
	fl := flops.Gemm(m, n, k, flops.Beta{IsZero: beta0})
	t := mo.gemmThreads(fl)
	gf := math.Max(mo.CPU.PeakGFLOPS(elemSize)*mo.maxEffFor(elemSize)*eff, 1e-6)
	iterUS := float64(fl) / gf / 1e3
	return (float64(iters)*mo.dispatchUS(t) + float64(iters)*iterUS) * 1e-6, true
}

// blackboxGemvSeconds prices a GEMV from the measured table. GEMV is
// bandwidth-bound, so the relative efficiency scales the lower of the
// compute asymptote and the DRAM roofline at the call's arithmetic
// intensity — the table's curve carries the cache-cliff structure, the
// roofline anchors its absolute ceiling to this socket.
func (mo *Model) blackboxGemvSeconds(elemSize, m, n int, beta0 bool, iters int) (float64, bool) {
	eff, ok := mo.Eff.Eff("gemv", efftab.PrecisionToken(elemSize), efftab.ClassifyGemv(m, n), efftab.GemvSize(m, n))
	if !ok {
		return 0, false
	}
	beta := flops.Beta{IsZero: beta0}
	fl := flops.Gemv(m, n, beta)
	bytes := flops.GemvBytes(m, n, elemSize, beta)
	t := mo.gemvThreads(fl)
	if byRows := m/32 + 1; byRows < t {
		t = byRows
	}
	peak := mo.CPU.PeakGFLOPS(elemSize) * mo.Lib.MaxEff
	bwGF := mo.memBWGBs(t) * float64(fl) / float64(bytes)
	gf := math.Max(math.Min(peak, bwGF)*eff, 1e-6)
	iterUS := float64(fl) / gf / 1e3
	return (float64(iters)*mo.dispatchUS(t) + float64(iters)*iterUS) * 1e-6, true
}

// GemmSeconds models i back-to-back iterations of one GEMM call. Warm
// iterations benefit both from cache residency of the operands and from the
// library's warmed-up state (packed panels, hot TLBs, spun-up threads),
// modeled as the profile's WarmComputeBonus on the compute roofline — the
// effect behind Transfer-Always offload thresholds growing with the
// iteration count (§IV-A).
func (mo *Model) GemmSeconds(elemSize, m, n, k int, beta0 bool, iters int) float64 {
	if iters < 1 || m <= 0 || n <= 0 {
		return 0
	}
	if mo.Eff != nil {
		if sec, ok := mo.blackboxGemmSeconds(elemSize, m, n, k, beta0, iters); ok {
			return sec
		}
	}
	beta := flops.Beta{IsZero: beta0}
	fl := flops.Gemm(m, n, k, beta)
	bytes := flops.GemmBytes(m, n, k, elemSize, beta)
	ws := (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n)) * int64(elemSize)
	t := mo.gemmThreads(fl)
	gfClean := mo.achievedGemmGF(elemSize, t, fl)
	gfQuirked := gfClean
	if mo.Lib.GemmQuirk != nil {
		gfQuirked = math.Max(mo.Lib.GemmQuirk(elemSize, m, n, k, gfClean), 1e-6)
	}
	warmBW := mo.warmBWGBs(t, ws, 1) * 1e3
	coldBW := mo.memBWGBs(t) * 1e3
	iterUS := func(gf float64, warm bool) float64 {
		computeUS := float64(fl) / gf / 1e3
		bw := coldBW
		if warm {
			computeUS /= 1 + mo.Lib.WarmComputeBonus
			bw = warmBW
		}
		return math.Max(computeUS, float64(bytes)/bw)
	}
	// The quirk persists for the cold call plus QuirkWarmIters warm ones,
	// then amortises away (0 = forever).
	quirkedWarm := iters - 1
	if mo.Lib.QuirkWarmIters > 0 && quirkedWarm > mo.Lib.QuirkWarmIters {
		quirkedWarm = mo.Lib.QuirkWarmIters
	}
	cleanWarm := iters - 1 - quirkedWarm
	totalUS := float64(iters)*mo.dispatchUS(t) +
		iterUS(gfQuirked, false) +
		float64(quirkedWarm)*iterUS(gfQuirked, true) +
		float64(cleanWarm)*iterUS(gfClean, true)
	return totalUS * 1e-6
}

// GemvSeconds models i back-to-back iterations of one GEMV call. GEMV is
// bandwidth-bound, so the compute roofline almost never binds; it is kept
// for completeness and for tiny matrices.
func (mo *Model) GemvSeconds(elemSize, m, n int, beta0 bool, iters int) float64 {
	if iters < 1 || m <= 0 || n <= 0 {
		return 0
	}
	if mo.Eff != nil {
		if sec, ok := mo.blackboxGemvSeconds(elemSize, m, n, beta0, iters); ok {
			return sec
		}
	}
	beta := flops.Beta{IsZero: beta0}
	fl := flops.Gemv(m, n, beta)
	bytes := flops.GemvBytes(m, n, elemSize, beta)
	ws := (int64(m)*int64(n) + int64(m) + int64(n)) * int64(elemSize)
	t := mo.gemvThreads(fl)
	// A thread needs a minimum number of rows to be worth waking.
	if byRows := m/32 + 1; byRows < t {
		t = byRows
	}
	peak := mo.CPU.PeakGFLOPS(elemSize) * float64(t) / float64(mo.CPU.Cores) * mo.Lib.MaxEff
	gf := math.Max(peak, 1e-6)
	computeUS := float64(fl) / gf / 1e3
	coldBW := mo.memBWGBs(t)
	// GEMV quirks model blocking-heuristic artifacts in the cache-resident
	// regime (the NVPL {256,256} step of Fig 5, oneMKL's stepped SGEMV
	// curves); streaming from DRAM is unaffected, which is why the paper's
	// CPU curves recover (or the GPU never catches up) at the largest sizes.
	cacheQuirk := 1.0
	if mo.Lib.GemvQuirk != nil {
		cacheQuirk = math.Max(mo.Lib.GemvQuirk(elemSize, m, n, 0, 1), 1e-6)
	}
	warmBW := mo.warmBWGBs(t, ws, cacheQuirk)
	coldUS := math.Max(computeUS, float64(bytes)/(coldBW*1e3))
	warmUS := math.Max(computeUS, float64(bytes)/(warmBW*1e3))
	totalUS := float64(iters)*mo.dispatchUS(t) + coldUS + float64(iters-1)*warmUS
	return totalUS * 1e-6
}

// TimeGemm is GemmSeconds behind the fault-injection point: it consults
// Inject (Backend "cpu", Kernel "gemm", Dim max(m,n,k)) and returns the
// fault error, or the modeled time plus any injected latency. Callers
// that can fail — internal/core's resilient sweep loop — use this; the
// plain GemmSeconds signature stays for calibration code and plots that
// never inject faults.
func (mo *Model) TimeGemm(elemSize, m, n, k int, beta0 bool, iters int) (float64, error) {
	var extra float64
	if mo.Inject != nil {
		var err error
		extra, err = mo.Inject.At(faultinject.Site{
			Backend: faultinject.BackendCPU, Kernel: "gemm", Dim: max(m, n, k),
		})
		if err != nil {
			return 0, err
		}
	}
	return mo.GemmSeconds(elemSize, m, n, k, beta0, iters) + extra, nil
}

// TimeGemv is GemvSeconds behind the fault-injection point (Backend
// "cpu", Kernel "gemv", Dim max(m,n)).
func (mo *Model) TimeGemv(elemSize, m, n int, beta0 bool, iters int) (float64, error) {
	var extra float64
	if mo.Inject != nil {
		var err error
		extra, err = mo.Inject.At(faultinject.Site{
			Backend: faultinject.BackendCPU, Kernel: "gemv", Dim: max(m, n, 0),
		})
		if err != nil {
			return 0, err
		}
	}
	return mo.GemvSeconds(elemSize, m, n, beta0, iters) + extra, nil
}

// EffectiveCPUs reports the average number of CPUs a long run of the kernel
// keeps busy — the analogue of the paper's perf-stat measurement that
// exposed AOCL's serial GEMV (0.89 CPUs vs 50.2 for GEMM, §IV-B).
func (mo *Model) EffectiveCPUs(kernel string, elemSize, m, n, k int) float64 {
	switch kernel {
	case "gemv":
		fl := flops.Gemv(m, n, flops.Beta{IsZero: true})
		t := mo.gemvThreads(fl)
		if byRows := m/32 + 1; byRows < t {
			t = byRows
		}
		// Serial libraries never quite reach 1.0 because of OS noise.
		if t == 1 {
			return 0.89
		}
		return float64(t) * 0.9
	default:
		fl := flops.Gemm(m, n, k, flops.Beta{IsZero: true})
		t := mo.gemmThreads(fl)
		return float64(t) * 0.9
	}
}

// GemmGFLOPS is a convenience returning modeled GFLOP/s for i iterations.
func (mo *Model) GemmGFLOPS(elemSize, m, n, k int, beta0 bool, iters int) float64 {
	s := mo.GemmSeconds(elemSize, m, n, k, beta0, iters)
	return flops.GFLOPS(int64(iters)*flops.Gemm(m, n, k, flops.Beta{IsZero: beta0}), s)
}

// GemvGFLOPS is a convenience returning modeled GFLOP/s for i iterations.
func (mo *Model) GemvGFLOPS(elemSize, m, n int, beta0 bool, iters int) float64 {
	s := mo.GemvSeconds(elemSize, m, n, beta0, iters)
	return flops.GFLOPS(int64(iters)*flops.Gemv(m, n, flops.Beta{IsZero: beta0}), s)
}
