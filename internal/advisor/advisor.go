// Package advisor turns GPU-BLOB's models into the decision tool the paper
// sketches in §III-D: "by relating an application's matrix/vector shape and
// size to those evaluated by GPU-BLOB, configuring the iteration count to
// approximate the number of BLAS kernel computations, and relating the data
// movement characteristics to one of the data transfer types, a user can
// assess whether it would be worth porting their application to use a GPU".
//
// It consumes a trace of BLAS call groups (kernel, shape, precision,
// back-to-back call count, data-movement pattern) and reports, per system,
// the CPU and GPU times, the better device, and the speedup — including the
// caveat the paper raises in §V: a threshold alone does not say by how
// much, so the advisor always quantifies.
package advisor

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/flops"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// Call is one group of identical BLAS calls in an application trace. It
// is the typed request model shared by cmd/blob-advise and the serving
// layer (internal/service): kernel and precision use core's enums, and
// the stringly CSV/JSON spellings are mapped at the parse boundary
// (ReadTrace here, request decoding in the service).
type Call struct {
	// Kernel is the BLAS kernel family (core.GEMM or core.GEMV).
	Kernel core.KernelKind
	// M, N, K are the dimensions (K ignored for GEMV).
	M, N, K int
	// Precision selects the element type (core.F32 or core.F64).
	Precision core.Precision
	// Count is how many times the call repeats back to back on the same
	// operands (GPU-BLOB's iteration count).
	Count int
	// Strategy is the data-movement pattern the application would use.
	Strategy xfer.Strategy
}

// The sentinels Validate wraps, one per rule, each followed in the
// message by the offending value.
var (
	ErrGemmK            = errors.New("advisor: gemm needs k >= 1")
	ErrUnknownKernel    = errors.New("advisor: unknown kernel")
	ErrUnknownPrecision = errors.New("advisor: unknown precision")
	ErrDims             = errors.New("advisor: dimensions must be >= 1")
	ErrCount            = errors.New("advisor: count must be >= 1")
)

// Validate reports whether the call is well-formed.
func (c Call) Validate() error {
	switch c.Kernel {
	case core.GEMM:
		if c.K < 1 {
			return fmt.Errorf("%w, got %d", ErrGemmK, c.K)
		}
	case core.GEMV:
	default:
		return fmt.Errorf("%w %v", ErrUnknownKernel, c.Kernel)
	}
	if c.Precision != core.F32 && c.Precision != core.F64 {
		return fmt.Errorf("%w %v", ErrUnknownPrecision, c.Precision)
	}
	if c.M < 1 || c.N < 1 {
		return fmt.Errorf("%w, got m=%d n=%d", ErrDims, c.M, c.N)
	}
	if c.Count < 1 {
		return fmt.Errorf("%w, got %d", ErrCount, c.Count)
	}
	return nil
}

// KernelName returns the BLAS-style name of the call, e.g. "SGEMM".
func (c Call) KernelName() string { return core.KernelName(c.Precision, c.Kernel) }

// Flops returns the exact per-call FLOP count (§III-A model, beta = 0).
func (c Call) Flops() int64 {
	if c.Kernel == core.GEMV {
		return flops.Gemv(c.M, c.N, flops.Beta{IsZero: true})
	}
	return flops.Gemm(c.M, c.N, c.K, flops.Beta{IsZero: true})
}

// Verdict is the advice for one call group on one system.
type Verdict struct {
	Call       Call
	System     string
	CPUSeconds float64
	GPUSeconds float64
	// Offload is true when the GPU (including data movement) wins.
	Offload bool
	// Speedup is CPU/GPU time (values < 1 mean the CPU wins).
	Speedup float64
}

// Times evaluates the two timing models for one validated call: the total
// modeled CPU seconds and GPU seconds (data movement included) for the
// call group's Count iterations. It is the allocation-free core of Advise,
// exposed for per-call consumers — internal/offload's dispatcher sits on
// this path for every BLAS invocation it routes, where a Verdict value
// per call would be pure overhead.
//
//blobvet:hotpath
func Times(sys systems.System, c Call) (cpuSeconds, gpuSeconds float64) {
	es := c.Precision.ElemSize()
	if c.Kernel == core.GEMV {
		cpuSeconds = sys.CPU.GemvSeconds(es, c.M, c.N, true, c.Count)
		gpuSeconds = sys.GPU.GemvSeconds(c.Strategy, es, c.M, c.N, true, c.Count)
		return cpuSeconds, gpuSeconds
	}
	cpuSeconds = sys.CPU.GemmSeconds(es, c.M, c.N, c.K, true, c.Count)
	gpuSeconds = sys.GPU.GemmSeconds(c.Strategy, es, c.M, c.N, c.K, true, c.Count)
	return cpuSeconds, gpuSeconds
}

// Advise evaluates one call group on one system.
func Advise(sys systems.System, c Call) (Verdict, error) {
	if err := c.Validate(); err != nil {
		return Verdict{}, err
	}
	cpu, gpu := Times(sys, c)
	return Verdict{
		Call: c, System: sys.Name,
		CPUSeconds: cpu, GPUSeconds: gpu,
		Offload: gpu < cpu,
		Speedup: cpu / gpu,
	}, nil
}

// AdviseAll evaluates every call on every system, preserving order.
func AdviseAll(syss []systems.System, calls []Call) ([]Verdict, error) {
	out := make([]Verdict, 0, len(syss)*len(calls))
	for _, c := range calls {
		for _, sys := range syss {
			v, err := Advise(sys, c)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// Summary aggregates verdicts for one system over a whole trace.
type Summary struct {
	System string
	// AllCPU / AllGPU are the total trace times with every call on one
	// device.
	AllCPU, AllGPU float64
	// Mixed is the total with each call on its better device (the paper's
	// per-call offload decision).
	Mixed float64
	// OffloadedCalls counts the call groups the advisor sends to the GPU.
	OffloadedCalls int
}

// Summarize folds verdicts into per-system totals.
func Summarize(verdicts []Verdict) []Summary {
	idx := map[string]int{}
	var out []Summary
	for _, v := range verdicts {
		i, ok := idx[v.System]
		if !ok {
			i = len(out)
			idx[v.System] = i
			out = append(out, Summary{System: v.System})
		}
		out[i].AllCPU += v.CPUSeconds
		out[i].AllGPU += v.GPUSeconds
		if v.Offload {
			out[i].Mixed += v.GPUSeconds
			out[i].OffloadedCalls++
		} else {
			out[i].Mixed += v.CPUSeconds
		}
	}
	return out
}

// --- trace files ------------------------------------------------------------

// TraceHeader is the column layout of an advisor trace CSV:
//
//	kernel,m,n,k,precision,count,movement
//	gemm,2048,2048,64,f64,32,once
//	gemv,4096,4096,0,f32,128,always
var TraceHeader = []string{"kernel", "m", "n", "k", "precision", "count", "movement"}

// ReadTrace parses a trace CSV (header required, '#' comment lines allowed).
func ReadTrace(r io.Reader) ([]Call, error) {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.FieldsPerRecord = len(TraceHeader)
	var calls []Call
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return calls, nil
		}
		if err != nil {
			return nil, err
		}
		if first {
			first = false
			if strings.EqualFold(rec[0], "kernel") {
				continue
			}
		}
		c, err := parseTraceRow(rec)
		if err != nil {
			return nil, err
		}
		calls = append(calls, c)
	}
}

// parseTraceRow maps one stringly CSV record onto the typed Call model.
// The trace format itself is unchanged; this is the sole place its
// spellings are interpreted.
func parseTraceRow(rec []string) (Call, error) {
	var c Call
	var err error
	if c.Kernel, err = core.ParseKernelKind(rec[0]); err != nil {
		return c, fmt.Errorf("advisor: bad kernel %q", rec[0])
	}
	if c.M, err = strconv.Atoi(strings.TrimSpace(rec[1])); err != nil {
		return c, fmt.Errorf("advisor: bad m %q", rec[1])
	}
	if c.N, err = strconv.Atoi(strings.TrimSpace(rec[2])); err != nil {
		return c, fmt.Errorf("advisor: bad n %q", rec[2])
	}
	if c.K, err = strconv.Atoi(strings.TrimSpace(rec[3])); err != nil {
		return c, fmt.Errorf("advisor: bad k %q", rec[3])
	}
	if c.Precision, err = core.ParsePrecision(rec[4]); err != nil {
		return c, fmt.Errorf("advisor: bad precision %q", rec[4])
	}
	if c.Count, err = strconv.Atoi(strings.TrimSpace(rec[5])); err != nil {
		return c, fmt.Errorf("advisor: bad count %q", rec[5])
	}
	st, err := xfer.ParseStrategy(strings.TrimSpace(rec[6]))
	if err != nil {
		return c, err
	}
	c.Strategy = st
	return c, c.Validate()
}
