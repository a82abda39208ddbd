// Library compare: §IV-B's LUMI GEMV investigation as a runnable story.
//
// The paper discovered that LUMI's surprisingly low GEMV offload thresholds
// were an artifact of AOCL not parallelising GEMV at all — perf stat showed
// an SGEMV using 0.89 CPUs while an SGEMM used 50.2 — and that switching
// the CPU library to OpenBLAS erased every GEMV offload threshold. This
// example replays that investigation end to end:
//
//  1. measure effective CPU utilisation per kernel (the perf-stat step),
//  2. compare AOCL vs OpenBLAS DGEMV performance curves (Fig 6),
//  3. recompute the square GEMV offload thresholds under both libraries.
//
// Run with: go run ./examples/library-compare
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

func main() {
	log.SetFlags(0)
	aocl := systems.LUMI()
	openblas := systems.LUMIOpenBLAS()

	fmt.Println("step 1: effective CPU utilisation on LUMI (perf stat equivalent)")
	fmt.Printf("  AOCL     SGEMV M=N=2048:   %5.2f CPUs\n", aocl.CPU.EffectiveCPUs("gemv", 4, 2048, 2048, 0))
	fmt.Printf("  AOCL     SGEMM M=N=K=2048: %5.1f CPUs\n", aocl.CPU.EffectiveCPUs("gemm", 4, 2048, 2048, 2048))
	fmt.Printf("  OpenBLAS SGEMV M=N=2048:   %5.1f CPUs\n", openblas.CPU.EffectiveCPUs("gemv", 4, 2048, 2048, 0))
	fmt.Println("  -> AOCL runs GEMV on a single core; that is the whole story.")

	fmt.Println("\nstep 2: square DGEMV CPU performance, 128 iterations (Fig 6)")
	pt, err := core.FindProblem(core.GEMV, "square")
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig(128)
	cfg.Validate.Enabled = false
	var chart plot.Chart
	chart.Title = "AOCL vs OpenBLAS square DGEMV CPU performance (128 iterations) on LUMI"
	chart.XLabel, chart.YLabel, chart.LogY = "M=N", "GFLOP/s", true
	var serAOCL, serOpen *core.Series
	for _, sys := range []systems.System{aocl, openblas} {
		ser, err := core.RunProblem(context.Background(), sys, pt, core.F64, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if sys.Name == aocl.Name {
			serAOCL = ser
		} else {
			serOpen = ser
		}
		curve := plot.Curve{Label: ser.CPULibrary}
		for i := range ser.Samples {
			smp := &ser.Samples[i]
			cpu, _ := ser.Gflops(smp)
			curve.X = append(curve.X, float64(smp.Dims.M))
			curve.Y = append(curve.Y, cpu)
		}
		chart.Curves = append(chart.Curves, plot.Downsample(curve, 140))
	}
	fmt.Print(chart.ASCII(100, 20))

	fmt.Println("\nstep 3: square GEMV offload thresholds under each CPU library")
	fmt.Printf("  %-22s %-12s %-12s %-12s\n", "library", "Once", "Always", "USM")
	for _, ser := range []*core.Series{serAOCL, serOpen} {
		fmt.Printf("  %-22s %-12s %-12s %-12s\n", ser.CPULibrary,
			ser.Thresholds[xfer.TransferOnce].String(),
			ser.Thresholds[xfer.TransferAlways].String(),
			ser.Thresholds[xfer.Unified].String())
	}
	fmt.Println("\n  -> with OpenBLAS the CPU keeps up and the GPU thresholds retreat or vanish:")
	fmt.Println("     \"vendor libraries are not always the best choice\" (§IV-B).")
}
