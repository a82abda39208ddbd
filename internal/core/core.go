// Package core implements the GPU BLAS Offload Benchmark itself: the
// problem-type registry (§III-C), the size sweep and interleaved CPU/GPU
// execution (§III), checksum validation (§III-B), and the GPU offload
// threshold detector (§III-D).
//
// The paper's primary contributions map onto this package:
//
//	C1 (the benchmark)         -> Run / RunProblem
//	C2 (the offload threshold) -> ThresholdDetector
//	C3 (per-system data)       -> driven by internal/sim/systems presets
//	C4 (transfer strategies)   -> every sample carries all three strategies
package core

import (
	"errors"
	"fmt"
	"strings"
)

// Precision selects the element type of a run.
type Precision int

// Supported precisions.
const (
	F32 Precision = iota
	F64
)

// ElemSize returns the element size in bytes.
func (p Precision) ElemSize() int {
	if p == F32 {
		return 4
	}
	return 8
}

// String returns the BLAS-style prefix name.
func (p Precision) String() string {
	if p == F32 {
		return "S"
	}
	return "D"
}

// The sentinels the parse boundary wraps: ParsePrecision, ParseKernelKind
// and FindProblem each name the rejected token after them.
var (
	ErrUnknownPrecision = errors.New("core: unknown precision")
	ErrUnknownKernel    = errors.New("core: unknown kernel")
	ErrUnknownProblem   = errors.New("problem type")
)

// ParsePrecision converts a CLI/CSV/JSON token into a Precision. It is
// the single parse boundary shared by the advisor's trace reader and the
// service's request decoding, so every surface accepts the same spellings.
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "f32", "s", "single", "fp32", "float32":
		return F32, nil
	case "f64", "d", "double", "fp64", "float64":
		return F64, nil
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownPrecision, s)
}

// KernelKind identifies a BLAS kernel family.
type KernelKind int

// Kernels covered by the study.
const (
	GEMM KernelKind = iota
	GEMV
)

// String returns the kernel name.
func (k KernelKind) String() string {
	if k == GEMM {
		return "GEMM"
	}
	return "GEMV"
}

// Valid reports whether k is a known kernel kind. KernelKind values
// arrive from typed call sites but also from decoded wire requests, so
// consumers validate before switching on the value.
func (k KernelKind) Valid() bool { return k == GEMM || k == GEMV }

// ParseKernelKind converts a CLI/CSV/JSON token into a KernelKind — the
// counterpart of ParsePrecision at the same parse boundary.
func ParseKernelKind(s string) (KernelKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "gemm":
		return GEMM, nil
	case "gemv":
		return GEMV, nil
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownKernel, s)
}

// KernelName returns e.g. "SGEMM" for (F32, GEMM).
func KernelName(p Precision, k KernelKind) string { return p.String() + k.String() }

// Dims is one concrete problem size. K is zero for GEMV.
type Dims struct {
	M, N, K int
}

// String formats the dims the way the paper presents thresholds: {m, n, k}
// for GEMM and {m, n} for GEMV.
func (d Dims) String() string {
	if d.K > 0 {
		return fmt.Sprintf("{%d, %d, %d}", d.M, d.N, d.K)
	}
	return fmt.Sprintf("{%d, %d}", d.M, d.N)
}

// MaxDim returns the largest dimension, the quantity bounded by the sweep's
// upper limit d.
func (d Dims) MaxDim() int {
	m := d.M
	if d.N > m {
		m = d.N
	}
	if d.K > m {
		m = d.K
	}
	return m
}

// ProblemType is a fixed relationship between a kernel's dimensions
// (§III-C). Dims maps the sweep parameter p (the "size step") to concrete
// dimensions; the sweep runs p = s, s+step, ... while every dimension stays
// within the upper limit d.
type ProblemType struct {
	// Name is a short stable identifier used in CSV file names.
	Name string
	// Desc is the paper's notation, e.g. "M=N, K=16M".
	Desc   string
	Kernel KernelKind
	// Dims produces the concrete dimensions at sweep parameter p >= 1.
	Dims func(p int) Dims
}

// GemmProblems lists the nine GEMM problem types: square plus the eight
// non-square types of Fig 1 / Table V.
var GemmProblems = []ProblemType{
	{
		Name: "square", Desc: "M=N=K", Kernel: GEMM,
		Dims: func(p int) Dims { return Dims{p, p, p} },
	},
	{
		Name: "tall_k_16m", Desc: "M=N, K=16M", Kernel: GEMM,
		Dims: func(p int) Dims { return Dims{p, p, 16 * p} },
	},
	{
		Name: "short_mn32_k", Desc: "M=N=32, K>=1", Kernel: GEMM,
		Dims: func(p int) Dims { return Dims{32, 32, p} },
	},
	{
		Name: "tall_m_16k", Desc: "K=N, M=16K", Kernel: GEMM,
		Dims: func(p int) Dims { return Dims{16 * p, p, p} },
	},
	{
		Name: "short_kn32_m", Desc: "K=N=32, M>=1", Kernel: GEMM,
		Dims: func(p int) Dims { return Dims{p, 32, 32} },
	},
	{
		Name: "tall_n_16k", Desc: "M=K, N=16K", Kernel: GEMM,
		Dims: func(p int) Dims { return Dims{p, 16 * p, p} },
	},
	{
		Name: "short_mk32_n", Desc: "M=K=32, N>=1", Kernel: GEMM,
		Dims: func(p int) Dims { return Dims{32, p, 32} },
	},
	{
		Name: "thin_k32", Desc: "M=N, K=32", Kernel: GEMM,
		Dims: func(p int) Dims { return Dims{p, p, 32} },
	},
	{
		Name: "square_m_16k", Desc: "M=N, M=16K", Kernel: GEMM,
		Dims: func(p int) Dims { return Dims{16 * p, 16 * p, p} },
	},
}

// GemvProblems lists the five GEMV problem types: square plus the four
// non-square types of Fig 1 / Table VI.
var GemvProblems = []ProblemType{
	{
		Name: "square", Desc: "M=N", Kernel: GEMV,
		Dims: func(p int) Dims { return Dims{p, p, 0} },
	},
	{
		Name: "tall_m_16n", Desc: "M=16N", Kernel: GEMV,
		Dims: func(p int) Dims { return Dims{16 * p, p, 0} },
	},
	{
		Name: "thin_n32", Desc: "N=32, M>=1", Kernel: GEMV,
		Dims: func(p int) Dims { return Dims{p, 32, 0} },
	},
	{
		Name: "wide_n_16m", Desc: "N=16M", Kernel: GEMV,
		Dims: func(p int) Dims { return Dims{p, 16 * p, 0} },
	},
	{
		Name: "thin_m32", Desc: "M=32, N>=1", Kernel: GEMV,
		Dims: func(p int) Dims { return Dims{32, p, 0} },
	},
}

// FindProblem resolves a problem type by kernel and name.
func FindProblem(kernel KernelKind, name string) (ProblemType, error) {
	list := GemmProblems
	if kernel == GEMV {
		list = GemvProblems
	}
	for _, pt := range list {
		if pt.Name == name {
			return pt, nil
		}
	}
	return ProblemType{}, fmt.Errorf("core: unknown %v %w %q", kernel, ErrUnknownProblem, name)
}

// AllProblems returns the full registry: 9 GEMM + 5 GEMV types, which with
// two precisions each yields the artifact's 28 CSV files per run.
func AllProblems() []ProblemType {
	out := make([]ProblemType, 0, len(GemmProblems)+len(GemvProblems))
	out = append(out, GemmProblems...)
	out = append(out, GemvProblems...)
	return out
}
