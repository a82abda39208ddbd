package core

import (
	"context"
	"testing"

	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

func testConfig(iters int) Config {
	cfg := DefaultConfig(iters)
	cfg.MaxDim = 256
	cfg.Step = 4
	cfg.Validate = Validation{Enabled: true, Every: 4, MaxFlops: 8e6}
	return cfg
}

func TestRunProblemSquareGemm(t *testing.T) {
	pt, _ := FindProblem(GEMM, "square")
	ser, err := RunProblem(context.Background(), systems.IsambardAI(), pt, F32, testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(ser.Samples) != 64 {
		t.Fatalf("samples = %d, want 64 (256/4)", len(ser.Samples))
	}
	for i := range ser.Samples {
		smp := &ser.Samples[i]
		if smp.CPUSeconds <= 0 {
			t.Fatalf("%v: non-positive CPU time", smp.Dims)
		}
		for _, st := range xfer.Strategies {
			if smp.GPUSeconds[st] <= 0 {
				t.Fatalf("%v %v: non-positive GPU time", smp.Dims, st)
			}
		}
		if cpu, _ := ser.Gflops(smp); cpu <= 0 {
			t.Fatalf("%v: non-positive CPU GFLOPS", smp.Dims)
		}
	}
	if ser.KernelName() != "SGEMM" {
		t.Fatalf("kernel name %q", ser.KernelName())
	}
	if ser.System != "Isambard-AI" || ser.CPULibrary == "" || ser.GPULibrary == "" {
		t.Fatalf("metadata: %q %q %q", ser.System, ser.CPULibrary, ser.GPULibrary)
	}
}

func TestRunValidatesChecksums(t *testing.T) {
	pt, _ := FindProblem(GEMM, "square")
	ser, err := RunProblem(context.Background(), systems.DAWN(), pt, F64, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if ser.ValidatedCount() == 0 {
		t.Fatal("no samples were validated")
	}
	if fails := ser.ValidationFailures(); len(fails) != 0 {
		t.Fatalf("checksum failures: %v", fails)
	}
	// Validated samples must carry both checksums.
	for _, smp := range ser.Samples {
		if smp.Validated && (smp.CPUChecksum == 0 && smp.GPUChecksum == 0) {
			t.Fatalf("%v: validated sample has empty checksums", smp.Dims)
		}
	}
}

func TestRunGemvValidation(t *testing.T) {
	pt, _ := FindProblem(GEMV, "square")
	for _, prec := range []Precision{F32, F64} {
		ser, err := RunProblem(context.Background(), systems.LUMI(), pt, prec, testConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		if ser.ValidatedCount() == 0 {
			t.Fatalf("%v: no validation", prec)
		}
		if len(ser.ValidationFailures()) != 0 {
			t.Fatalf("%v: checksum failures", prec)
		}
	}
}

func TestRunNonDefaultAlphaBeta(t *testing.T) {
	pt, _ := FindProblem(GEMM, "square")
	cfg := testConfig(1)
	cfg.Alpha, cfg.Beta = 2.5, 1.5
	ser, err := RunProblem(context.Background(), systems.DAWN(), pt, F64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ser.ValidatedCount() == 0 || len(ser.ValidationFailures()) != 0 {
		t.Fatal("validation with alpha/beta != defaults failed")
	}
	// beta != 0 raises the FLOP count: 2MNK + 3MN.
	smp := ser.Samples[len(ser.Samples)-1]
	n := int64(smp.Dims.M)
	if want := 2*n*n*n + 3*n*n; smp.FlopsPerIter != want {
		t.Fatalf("flops = %d, want %d", smp.FlopsPerIter, want)
	}
}

func TestRunCPUOnlyAndGPUOnly(t *testing.T) {
	pt, _ := FindProblem(GEMM, "square")
	cfg := testConfig(1)
	cfg.Mode = ModeCPUOnly
	ser, err := RunProblem(context.Background(), systems.LUMI(), pt, F32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range ser.Samples {
		if smp.CPUSeconds <= 0 {
			t.Fatal("cpu-only run missing CPU times")
		}
		if smp.GPUSeconds[xfer.TransferOnce] != 0 {
			t.Fatal("cpu-only run has GPU times")
		}
		if smp.Validated {
			t.Fatal("cpu-only run must not validate (no GPU result)")
		}
	}
	for _, st := range xfer.Strategies {
		if ser.Thresholds[st].Found {
			t.Fatal("cpu-only run must not produce thresholds")
		}
	}
	cfg.Mode = ModeGPUOnly
	ser, err = RunProblem(context.Background(), systems.LUMI(), pt, F32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range ser.Samples {
		if smp.CPUSeconds != 0 {
			t.Fatal("gpu-only run has CPU times")
		}
		if smp.GPUSeconds[xfer.Unified] <= 0 {
			t.Fatal("gpu-only run missing GPU times")
		}
	}
}

func TestRunSweepBoundsRespected(t *testing.T) {
	// A 16x problem type must stop as soon as any dimension would exceed d.
	pt, _ := FindProblem(GEMM, "tall_k_16m")
	cfg := testConfig(1)
	cfg.MaxDim = 256
	cfg.Step = 1
	cfg.Validate.Enabled = false
	ser, err := RunProblem(context.Background(), systems.DAWN(), pt, F32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// p runs 1..16 (k = 16p <= 256).
	if len(ser.Samples) != 16 {
		t.Fatalf("samples = %d, want 16", len(ser.Samples))
	}
	last := ser.Samples[len(ser.Samples)-1]
	if last.Dims.K != 256 {
		t.Fatalf("last k = %d, want 256", last.Dims.K)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	pt, _ := FindProblem(GEMM, "square")
	cfg := testConfig(1)
	cfg.MinDim, cfg.MaxDim = 100, 10
	if _, err := RunProblem(context.Background(), systems.DAWN(), pt, F32, cfg); err == nil {
		t.Fatal("expected error for MaxDim < MinDim")
	}
	if _, err := RunProblem(context.Background(), systems.DAWN(), ProblemType{Name: "x", Kernel: GEMM}, F32, testConfig(1)); err == nil {
		t.Fatal("expected error for nil Dims")
	}
}

func TestRunAllProblemsProduces28Series(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxDim = 64
	cfg.Step = 8
	cfg.Validate.Enabled = false
	series, err := Run(context.Background(), systems.IsambardAI(), AllProblems(), []Precision{F32, F64}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 28 {
		t.Fatalf("series = %d, want 28", len(series))
	}
}

// The GFLOP/s reported for the GPU must include transfer time (§III-A):
// Transfer-Always can never be faster than Transfer-Once at > 1 iteration.
func TestGpuGflopsIncludeTransfer(t *testing.T) {
	pt, _ := FindProblem(GEMM, "square")
	cfg := testConfig(8)
	cfg.Validate.Enabled = false
	ser, err := RunProblem(context.Background(), systems.DAWN(), pt, F64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ser.Samples {
		smp := &ser.Samples[i]
		if smp.GPUSeconds[xfer.TransferAlways] < smp.GPUSeconds[xfer.TransferOnce] {
			t.Fatalf("%v: Always (%g) faster than Once (%g)", smp.Dims,
				smp.GPUSeconds[xfer.TransferAlways], smp.GPUSeconds[xfer.TransferOnce])
		}
		if _, gpu := ser.Gflops(smp); gpu[xfer.TransferAlways] > gpu[xfer.TransferOnce] {
			t.Fatalf("%v: Always rate %g above Once rate %g", smp.Dims,
				gpu[xfer.TransferAlways], gpu[xfer.TransferOnce])
		}
	}
}

// Thresholds reported by the runner must agree with re-deriving them from
// the samples.
func TestRunnerThresholdsConsistent(t *testing.T) {
	pt, _ := FindProblem(GEMM, "square")
	cfg := DefaultConfig(8)
	cfg.MaxDim = 512
	cfg.Validate.Enabled = false
	ser, err := RunProblem(context.Background(), systems.IsambardAI(), pt, F32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range xfer.Strategies {
		var det ThresholdDetector
		for _, smp := range ser.Samples {
			det.ObserveTimes(smp.Dims, smp.CPUSeconds, smp.GPUSeconds[st])
		}
		d, ok := det.Threshold()
		if ok != ser.Thresholds[st].Found || (ok && d != ser.Thresholds[st].Dims) {
			t.Fatalf("%v: runner %v vs rederived %v %v", st, ser.Thresholds[st], d, ok)
		}
	}
	// And on the Isambard model, the square SGEMM threshold is the paper's
	// {26, 26, 26}.
	th := ser.Thresholds[xfer.TransferOnce]
	if !th.Found || th.Dims.M != 26 {
		t.Fatalf("Isambard-AI square SGEMM Once threshold = %v, want {26, 26, 26}", th)
	}
}

// Reported GFLOP/s must be exactly total FLOPs / measured seconds for both
// devices and all strategies.
func TestGflopsConsistency(t *testing.T) {
	pt, _ := FindProblem(GEMM, "square")
	cfg := testConfig(8)
	cfg.Validate.Enabled = false
	ser, err := RunProblem(context.Background(), systems.DAWN(), pt, F32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ser.Samples {
		smp := &ser.Samples[i]
		cpu, gpu := ser.Gflops(smp)
		total := float64(smp.FlopsPerIter) * 8
		wantCPU := total / smp.CPUSeconds / 1e9
		if rel := (cpu - wantCPU) / wantCPU; rel > 1e-12 || rel < -1e-12 {
			t.Fatalf("%v: cpu gflops %g, want %g", smp.Dims, cpu, wantCPU)
		}
		for _, st := range xfer.Strategies {
			wantGPU := total / smp.GPUSeconds[st] / 1e9
			if rel := (gpu[st] - wantGPU) / wantGPU; rel > 1e-12 || rel < -1e-12 {
				t.Fatalf("%v %v: gpu gflops %g, want %g", smp.Dims, st, gpu[st], wantGPU)
			}
		}
	}
}

// FlopsPerIter must honour the §III-A beta rule across kernels.
func TestFlopsPerIterBetaRule(t *testing.T) {
	for _, kernel := range []KernelKind{GEMM, GEMV} {
		pt, _ := FindProblem(kernel, "square")
		for _, beta := range []float64{0, 2} {
			cfg := testConfig(1)
			cfg.Beta = beta
			cfg.MaxDim = 16
			cfg.Validate.Enabled = false
			ser, err := RunProblem(context.Background(), systems.DAWN(), pt, F64, cfg)
			if err != nil {
				t.Fatal(err)
			}
			smp := ser.Samples[len(ser.Samples)-1]
			n := int64(smp.Dims.M)
			var want int64
			if kernel == GEMM {
				want = 2*n*n*n + n*n
				if beta != 0 {
					want += 2 * n * n
				}
			} else {
				want = 2*n*n + n
				if beta != 0 {
					want += 2 * n
				}
			}
			if smp.FlopsPerIter != want {
				t.Fatalf("%v beta=%v: flops %d, want %d", kernel, beta, smp.FlopsPerIter, want)
			}
		}
	}
}
