package cpumodel

import "repro/internal/sim/efftab"

// Library profiles. Constants are calibrated so the full benchmark
// reproduces the qualitative shapes of the paper's Tables III-VI and
// Figures 2-6; the named quirks correspond to artifacts the paper
// explicitly documents.

// OneMKLDropStart is the square-GEMM dimension at which oneMKL's heuristics
// switch algorithm and performance drops sharply on DAWN (Fig 2).
const OneMKLDropStart = 629

// OneMKLDropRecover is the dimension by which the drop has been recovered.
const OneMKLDropRecover = 1800

// oneMKLGemmDrop models Fig 2: a sharp performance drop at {629,629,629}
// that is gradually recovered from as the problem grows. The quirk keys on
// the geometric-mean dimension so non-square problems of comparable volume
// see the same heuristic switch.
func oneMKLGemmDrop(_ int, m, n, k int, gf float64) float64 {
	gm := efftab.GemmSize(m, n, k)
	if gm < OneMKLDropStart || gm >= OneMKLDropRecover {
		return gf
	}
	f := (gm - OneMKLDropStart) / (OneMKLDropRecover - OneMKLDropStart)
	return gf * (0.35 + 0.65*f)
}

// oneMKLGemvSteps models the stepped SGEMV curves on DAWN (§IV-B): discrete
// plateaus as the library switches blocking strategy.
func oneMKLGemvSteps(elemSize int, m, n, _ int, gf float64) float64 {
	d := max(m, n)
	if elemSize != 4 {
		return gf
	}
	switch {
	case d < 512:
		return gf * 0.70
	case d < 1536:
		return gf * 0.85
	default:
		return gf
	}
}

// nvplGemvStep models the Isambard-AI CPU performance drop at approximately
// {256,256} for square GEMV (Fig 5) and at {2048,32}/{32,2048} for the thin
// non-square problem types (§IV-D).
func nvplGemvStep(_ int, m, n, _ int, gf float64) float64 {
	if m == n {
		if m >= 256 {
			return gf * 0.20
		}
		return gf
	}
	// Thin problems: a drop once the long dimension passes 2048.
	if (m <= 32 || n <= 32) && max(m, n) >= 2048 {
		return gf * 0.25
	}
	return gf
}

// OneMKL is Intel oneMKL 2024.1 on DAWN (mature, work-scaled threading,
// strong small-size path, the Fig-2 drop).
var OneMKL = Profile{
	Name:                "oneMKL 2024.1",
	Heuristic:           ScaleWithWork,
	GemvHeuristic:       ScaleWithWork,
	MaxEff:              0.86,
	RampFlopsPerThread:  2.0e5,
	ScaleGrainFlops:     6.0e5,
	GemvScaleGrainFlops: 1.5e5,
	DispatchBaseUS:      0.4,
	DispatchPerThreadUS: 0.05,
	CacheFraction:       0.505,
	WarmComputeBonus:    0.30,
	QuirkWarmIters:      16,
	GemmQuirk:           oneMKLGemmDrop,
	GemvQuirk:           oneMKLGemvSteps,
}

// AOCL is AMD AOCL 4.1 (BLIS) on LUMI: all configured threads for GEMM
// (BLIS_NUM_THREADS=56) with a noticeable fork/barrier, and a serial GEMV
// (§IV-B).
var AOCL = Profile{
	Name:                "AOCL 4.1",
	Heuristic:           AllThreads,
	GemvHeuristic:       SingleThread,
	MaxEff:              0.72,
	MaxEffF64:           0.45,
	RampFlopsPerThread:  3.6e6,
	RampPower:           0.35,
	DispatchBaseUS:      2.2,
	DispatchPerThreadUS: 0.14,
	CacheFraction:       0.70,
	WarmComputeBonus:    0.35,
}

// NVPL is NVIDIA NVPL 24.7 on Isambard-AI: all 72 threads for every problem
// size (§IV-A), hurting small problems, plus the GEMV step quirks.
var NVPL = Profile{
	Name:                "NVPL 24.7",
	Heuristic:           AllThreads,
	GemvHeuristic:       ScaleWithWork,
	MaxEff:              0.82,
	RampFlopsPerThread:  3.3e5,
	ScaleGrainFlops:     8.0e5,
	DispatchBaseUS:      1.0,
	DispatchPerThreadUS: 0.031,
	CacheFraction:       0.70,
	GemvQuirk:           nvplGemvStep,
}

// NVPLSingleThread is NVPL pinned to one thread (Fig 3's comparison run).
var NVPLSingleThread = Profile{
	Name:               "NVPL 24.7 (1 thread)",
	Heuristic:          SingleThread,
	GemvHeuristic:      SingleThread,
	MaxEff:             0.82,
	RampFlopsPerThread: 1.5e5,
	DispatchBaseUS:     0.3,
	CacheFraction:      0.70,
}

// ArmPL is Arm Performance Libraries 24.04 (Fig 3): scales threads with the
// problem size, so small problems run fast.
var ArmPL = Profile{
	Name:                "ArmPL 24.04",
	Heuristic:           ScaleWithWork,
	GemvHeuristic:       ScaleWithWork,
	MaxEff:              0.80,
	RampFlopsPerThread:  1.8e5,
	ScaleGrainFlops:     5.0e5,
	DispatchBaseUS:      0.5,
	DispatchPerThreadUS: 0.05,
	CacheFraction:       0.70,
}

// OpenBLAS is OpenBLAS 0.3.24 (Fig 6): properly multi-threaded GEMV but a
// weaker small-problem path than AOCL's serial one.
var OpenBLAS = Profile{
	Name:                "OpenBLAS 0.3.24",
	Heuristic:           ScaleWithWork,
	GemvHeuristic:       AllThreads,
	MaxEff:              0.78,
	RampFlopsPerThread:  2.5e5,
	ScaleGrainFlops:     5.0e5,
	DispatchBaseUS:      1.5,
	DispatchPerThreadUS: 0.12,
	CacheFraction:       0.70,
}
