package advisor

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

func TestCallValidate(t *testing.T) {
	good := Call{Kernel: core.GEMM, M: 10, N: 10, K: 10, Precision: core.F64, Count: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Call{
		{Kernel: core.KernelKind(7), M: 1, N: 1, K: 1, Precision: core.F64, Count: 1},
		{Kernel: core.GEMM, M: 0, N: 1, K: 1, Precision: core.F64, Count: 1},
		{Kernel: core.GEMM, M: 1, N: 1, K: 0, Precision: core.F64, Count: 1},
		{Kernel: core.GEMM, M: 1, N: 1, K: 1, Precision: core.Precision(9), Count: 1},
		{Kernel: core.GEMM, M: 1, N: 1, K: 1, Precision: core.F64, Count: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d should be invalid: %+v", i, c)
		}
	}
	// GEMV ignores K.
	gv := Call{Kernel: core.GEMV, M: 10, N: 10, Precision: core.F32, Count: 1}
	if err := gv.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := gv.KernelName(); got != "SGEMV" {
		t.Fatalf("KernelName = %q", got)
	}
}

func TestAdviseDirections(t *testing.T) {
	isam := systems.IsambardAI()
	// A big, high-reuse square GEMM must offload on the GH200.
	v, err := Advise(isam, Call{Kernel: core.GEMM, M: 2048, N: 2048, K: 2048, Precision: core.F32, Count: 32, Strategy: xfer.TransferOnce})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Offload || v.Speedup <= 1 {
		t.Fatalf("large GEMM should offload on GH200: %+v", v)
	}
	// A tiny single-shot GEMV must not.
	v, _ = Advise(isam, Call{Kernel: core.GEMV, M: 8, N: 8, Precision: core.F64, Count: 1, Strategy: xfer.TransferAlways})
	if v.Offload {
		t.Fatalf("tiny gemv should stay on CPU: %+v", v)
	}
	// Verdict internals are consistent.
	if v.Offload != (v.GPUSeconds < v.CPUSeconds) {
		t.Fatal("offload flag inconsistent with times")
	}
}

func TestAdviseAllAndSummarize(t *testing.T) {
	calls := []Call{
		{Kernel: core.GEMM, M: 1024, N: 1024, K: 1024, Precision: core.F64, Count: 16, Strategy: xfer.TransferOnce},
		{Kernel: core.GEMV, M: 512, N: 512, Precision: core.F64, Count: 1, Strategy: xfer.TransferAlways},
	}
	verdicts, err := AdviseAll(systems.All(), calls)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 6 {
		t.Fatalf("verdicts = %d", len(verdicts))
	}
	sums := Summarize(verdicts)
	if len(sums) != 3 {
		t.Fatalf("summaries = %d", len(sums))
	}
	for _, s := range sums {
		// Mixed placement can never lose to either single-device plan.
		if s.Mixed > s.AllCPU+1e-15 || s.Mixed > s.AllGPU+1e-15 {
			t.Fatalf("%s: mixed %g worse than single-device (cpu %g, gpu %g)",
				s.System, s.Mixed, s.AllCPU, s.AllGPU)
		}
		if s.OffloadedCalls < 0 || s.OffloadedCalls > len(calls) {
			t.Fatalf("%s: offloaded %d of %d", s.System, s.OffloadedCalls, len(calls))
		}
	}
}

func TestReadTrace(t *testing.T) {
	src := `kernel,m,n,k,precision,count,movement
# an attention-style projection
gemm,2048,2048,64,f64,32,once
gemv,4096,4096,0,f32,128,always
gemm,512,512,512,single,8,usm
`
	calls, err := ReadTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 {
		t.Fatalf("calls = %d", len(calls))
	}
	if calls[0].Kernel != core.GEMM || calls[0].K != 64 || calls[0].Precision != core.F64 || calls[0].Strategy != xfer.TransferOnce {
		t.Fatalf("call 0: %+v", calls[0])
	}
	if calls[1].Kernel != core.GEMV || calls[1].Precision != core.F32 || calls[1].Strategy != xfer.TransferAlways {
		t.Fatalf("call 1: %+v", calls[1])
	}
	if calls[2].Precision != core.F32 || calls[2].Strategy != xfer.Unified {
		t.Fatalf("call 2: %+v", calls[2])
	}
}

// TestReadTraceMalformedRows covers each way a row can be rejected; the
// error message must point at the offending field so traces are fixable
// from the message alone.
func TestReadTraceMalformedRows(t *testing.T) {
	cases := []struct {
		name, row, wantErr string
	}{
		{"bad m", "gemm,x,1,1,f64,1,once", "bad m"},
		{"bad n", "gemm,1,?,1,f64,1,once", "bad n"},
		{"bad k", "gemm,1,1,,f64,1,once", "bad k"},
		{"unknown precision", "gemm,1,1,1,f16,1,once", "bad precision"},
		{"bad count", "gemm,1,1,1,f64,lots,once", "bad count"},
		{"zero count", "gemm,4,4,4,f64,0,once", "count must be >= 1"},
		{"unknown movement", "gemm,1,1,1,f64,1,sometimes", "unknown strategy"},
		{"bad kernel", "spmm,1,1,1,f64,1,once", "bad kernel"},
		{"gemm zero k", "gemm,4,4,0,f64,1,once", "k >= 1"},
		{"short record", "gemm,1,1,1,f64,1", "wrong number of fields"},
		{"long record", "gemm,1,1,1,f64,1,once,extra", "wrong number of fields"},
	}
	for _, tc := range cases {
		src := "kernel,m,n,k,precision,count,movement\n" + tc.row + "\n"
		_, err := ReadTrace(strings.NewReader(src))
		if err == nil {
			t.Fatalf("%s: row %q should fail", tc.name, tc.row)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestCallFlops(t *testing.T) {
	c := Call{Kernel: core.GEMM, M: 2, N: 3, K: 4, Precision: core.F64, Count: 1}
	if got := c.Flops(); got != 2*2*3*4+2*3 {
		t.Fatalf("gemm flops = %d", got)
	}
	c = Call{Kernel: core.GEMV, M: 3, N: 4, Precision: core.F64, Count: 1}
	if got := c.Flops(); got != 2*3*4+3 {
		t.Fatalf("gemv flops = %d", got)
	}
}

// TestGemmQuirksSeeKAtLeastOne: the library GEMM quirks key on
// efftab.GemmSize, the cube root of m·n·k, which is only meaningful for
// k >= 1. Neither path that prices a GEMM hands a quirk a smaller k: the
// sweep engine draws k from a problem type at p >= 1, and the advisor
// rejects k < 1 before it prices anything.
func TestGemmQuirksSeeKAtLeastOne(t *testing.T) {
	var calls, bad atomic.Int64
	watch := func(q func(es, m, n, k int, gf float64) float64) func(es, m, n, k int, gf float64) float64 {
		return func(es, m, n, k int, gf float64) float64 {
			calls.Add(1)
			if k < 1 {
				bad.Add(1)
			}
			if q == nil {
				return gf
			}
			return q(es, m, n, k, gf)
		}
	}
	cfg := core.DefaultConfig(8)
	cfg.MinDim, cfg.MaxDim = 0, 40
	for _, sys := range systems.All() {
		sys.CPU.Lib.GemmQuirk = watch(sys.CPU.Lib.GemmQuirk)
		sys.GPU.Lib.GemmQuirk = watch(sys.GPU.Lib.GemmQuirk)
		if _, err := core.Run(context.Background(), sys, core.GemmProblems, []core.Precision{core.F32, core.F64}, cfg); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{-1, 0, 1} {
			_, err := Advise(sys, Call{Kernel: core.GEMM, M: 64, N: 64, K: k, Precision: core.F64, Count: 1})
			if (err == nil) != (k >= 1) {
				t.Errorf("%s: Advise with k=%d: err = %v", sys.Name, k, err)
			}
		}
	}
	if calls.Load() == 0 || bad.Load() != 0 {
		t.Fatalf("quirks saw %d calls, %d of them with k < 1; want some and none", calls.Load(), bad.Load())
	}
}
