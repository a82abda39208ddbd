// Quickstart: run one GPU-BLOB sweep and read off the offload threshold.
//
// This is the smallest useful GPU-BLOB program: pick a system model, pick a
// problem type, sweep sizes 1..1024 at 8 iterations, then print the per-
// strategy GPU offload thresholds and a short excerpt of the performance
// data. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

func main() {
	log.SetFlags(0)

	// A system is a CPU socket + BLAS library and a GPU + BLAS library
	// joined by an interconnect. Presets model the paper's three machines.
	sys := systems.IsambardAI()

	// Square GEMM, the classic case: M = N = K.
	problem, err := core.FindProblem(core.GEMM, "square")
	if err != nil {
		log.Fatal(err)
	}

	// Sweep sizes 1..1024 (every size), 8 iterations per size, alpha=1
	// beta=0, with checksum validation on sampled sizes.
	cfg := core.DefaultConfig(8)
	cfg.MaxDim = 1024

	series, err := core.RunProblem(context.Background(), sys, problem, core.F32, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("system: %s (CPU: %s, GPU: %s)\n", series.System, series.CPULibrary, series.GPULibrary)
	fmt.Printf("kernel: %s %s (%s), %d sizes, %d iterations each\n\n",
		series.KernelName(), problem.Name, problem.Desc, len(series.Samples), cfg.Iterations)

	fmt.Println("GPU offload thresholds (minimum size from which the GPU always wins):")
	for _, st := range xfer.Strategies {
		fmt.Printf("  %-7s %s\n", st, series.Thresholds[st])
	}

	fmt.Println("\nperformance excerpt (GFLOP/s):")
	fmt.Printf("  %6s %12s %12s %12s %12s\n", "M=N=K", "CPU", "GPU Once", "GPU Always", "GPU USM")
	for _, n := range []int{8, 32, 128, 512, 1024} {
		for i := range series.Samples {
			smp := &series.Samples[i]
			if smp.Dims.M != n {
				continue
			}
			cpu, gpu := series.Gflops(smp)
			fmt.Printf("  %6d %12.1f %12.1f %12.1f %12.1f\n", n, cpu,
				gpu[xfer.TransferOnce], gpu[xfer.TransferAlways], gpu[xfer.Unified])
		}
	}

	if v := series.ValidatedCount(); v > 0 {
		fmt.Printf("\nchecksum validation: %d sizes executed with two independent kernels, %d mismatches\n",
			v, len(series.ValidationFailures()))
	}
}
