package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// curvesFromSeries converts one Series into plot curves: the CPU curve plus
// one GPU curve per transfer strategy (GFLOP/s vs the sweep's largest
// dimension).
func curvesFromSeries(ser *core.Series, includeCPU bool, strategies []xfer.Strategy, labelPrefix string) []plot.Curve {
	var curves []plot.Curve
	n := len(ser.Samples)
	x, cpu := make([]float64, n), make([]float64, n)
	gpu := make([][core.NumStrategies]float64, n)
	for i := range ser.Samples {
		smp := &ser.Samples[i]
		x[i] = float64(smp.Dims.MaxDim())
		cpu[i], gpu[i] = ser.Gflops(smp)
	}
	if includeCPU {
		curves = append(curves, plot.Curve{Label: labelPrefix + "CPU (" + ser.CPULibrary + ")", X: x, Y: cpu})
	}
	for _, st := range strategies {
		y := make([]float64, n)
		for i := range gpu {
			y[i] = gpu[i][st]
		}
		curves = append(curves, plot.Curve{Label: labelPrefix + "GPU " + st.String(), X: x, Y: y})
	}
	return curves
}

// renderChart writes the ASCII chart to w and the SVG artifact to OutDir.
func renderChart(w io.Writer, opt Options, fileBase string, ch plot.Chart) error {
	for i := range ch.Curves {
		ch.Curves[i] = plot.Downsample(ch.Curves[i], 160)
	}
	fmt.Fprint(w, ch.ASCII(100, 24))
	return writeArtifact(opt, fileBase+".svg", ch.SVG(800, 480))
}

// runSquare sweeps the square problem of a kernel on one system. The
// caller's context reaches core.RunProblem so cancellation aborts the
// sweep between sizes.
func runSquare(ctx context.Context, sys systems.System, kernel core.KernelKind, prec core.Precision, opt Options, iters int) (*core.Series, error) {
	pt, err := core.FindProblem(kernel, "square")
	if err != nil {
		return nil, err
	}
	return core.RunProblem(ctx, sys, pt, prec, sweepConfig(opt, iters))
}

// Fig2 regenerates Fig 2: square SGEMM performance at one iteration on
// DAWN, showing the oneMKL performance drop at {629,629,629} and the GPU
// curves for all three transfer strategies.
func Fig2(ctx context.Context, w io.Writer, opt Options) error {
	opt = opt.Normalize()
	ser, err := runSquare(ctx, systems.DAWN(), core.GEMM, core.F32, opt, 1)
	if err != nil {
		return err
	}
	ch := plot.Chart{
		Title:  "Square SGEMM performance (1 iteration) on DAWN",
		XLabel: "M=N=K", YLabel: "GFLOP/s", LogY: true,
		Curves: curvesFromSeries(ser, true, xfer.Strategies, ""),
	}
	return renderChart(w, opt, "fig2_dawn_sgemm_1iter", ch)
}

// Fig3 regenerates Fig 3: square SGEMM CPU performance on Isambard-AI for
// NVPL (72 threads), NVPL (1 thread) and ArmPL over the first 192 problem
// sizes, at 1 and 8 iterations. It shows NVPL's all-threads-always
// heuristic losing to both alternatives at small sizes.
func Fig3(ctx context.Context, w io.Writer, opt Options) error {
	opt = opt.Normalize()
	opt.MaxDim = 192
	configs := []systems.System{
		systems.IsambardAI(),
		systems.IsambardAINVPL1T(),
		systems.IsambardAIArmPL(),
	}
	for _, iters := range []int{1, 8} {
		var curves []plot.Curve
		for _, sys := range configs {
			ser, err := runSquare(ctx, sys, core.GEMM, core.F32, opt, iters)
			if err != nil {
				return err
			}
			cs := curvesFromSeries(ser, true, nil, "")
			curves = append(curves, cs...)
		}
		ch := plot.Chart{
			Title:  fmt.Sprintf("Square SGEMM CPU performance on Isambard-AI (%d iteration(s), first 192 sizes)", iters),
			XLabel: "M=N=K", YLabel: "GFLOP/s", LogY: true,
			Curves: curves,
		}
		if err := renderChart(w, opt, fmt.Sprintf("fig3_isambard_sgemm_%diter", iters), ch); err != nil {
			return err
		}
	}
	return nil
}

// Fig4 regenerates Fig 4: square DGEMV performance at one iteration on all
// three systems — the CPU wins outright on LUMI, while DAWN and Isambard-AI
// show a mid-range band where the GPU outperforms a dropped CPU curve even
// though no offload threshold exists.
func Fig4(ctx context.Context, w io.Writer, opt Options) error {
	opt = opt.Normalize()
	for _, sys := range systems.All() {
		ser, err := runSquare(ctx, sys, core.GEMV, core.F64, opt, 1)
		if err != nil {
			return err
		}
		ch := plot.Chart{
			Title:  "Square DGEMV performance (1 iteration) on " + sys.Name,
			XLabel: "M=N", YLabel: "GFLOP/s", LogY: true,
			Curves: curvesFromSeries(ser, true, xfer.Strategies, ""),
		}
		if err := renderChart(w, opt, "fig4_dgemv_1iter_"+sys.Name, ch); err != nil {
			return err
		}
	}
	return nil
}

// Fig5 regenerates Fig 5: square SGEMV performance at 128 iterations on
// Isambard-AI and DAWN — steep GH200 curves from small sizes versus DAWN's
// shallow PCIe-fed curves, plus the NVPL CPU step at {256,256}.
func Fig5(ctx context.Context, w io.Writer, opt Options) error {
	opt = opt.Normalize()
	for _, sys := range []systems.System{systems.IsambardAI(), systems.DAWN()} {
		ser, err := runSquare(ctx, sys, core.GEMV, core.F32, opt, 128)
		if err != nil {
			return err
		}
		ch := plot.Chart{
			Title:  "Square SGEMV performance (128 iterations) on " + sys.Name,
			XLabel: "M=N", YLabel: "GFLOP/s", LogY: true,
			Curves: curvesFromSeries(ser, true, xfer.Strategies, ""),
		}
		if err := renderChart(w, opt, "fig5_sgemv_128iter_"+sys.Name, ch); err != nil {
			return err
		}
	}
	return nil
}

// Fig6 regenerates Fig 6: AOCL vs OpenBLAS square DGEMV CPU performance on
// LUMI at 128 iterations — AOCL's serial GEMV against OpenBLAS's
// multi-threaded one.
func Fig6(ctx context.Context, w io.Writer, opt Options) error {
	opt = opt.Normalize()
	var curves []plot.Curve
	for _, sys := range []systems.System{systems.LUMI(), systems.LUMIOpenBLAS()} {
		ser, err := runSquare(ctx, sys, core.GEMV, core.F64, opt, 128)
		if err != nil {
			return err
		}
		curves = append(curves, curvesFromSeries(ser, true, nil, "")...)
	}
	ch := plot.Chart{
		Title:  "AOCL vs OpenBLAS square DGEMV CPU performance (128 iterations) on LUMI",
		XLabel: "M=N", YLabel: "GFLOP/s", LogY: true,
		Curves: curves,
	}
	return renderChart(w, opt, "fig6_lumi_dgemv_libraries", ch)
}

// Fig7 regenerates Fig 7 (Appendix A): DAWN GPU SGEMM Transfer-Once
// performance at 32 iterations under implicit scaling (both PVC tiles as
// one device) versus explicit scaling (one tile) — implicit is lower and
// less consistent despite twice the compute.
func Fig7(ctx context.Context, w io.Writer, opt Options) error {
	opt = opt.Normalize()
	var curves []plot.Curve
	for _, sys := range []systems.System{systems.DAWN(), systems.DAWNImplicitScaling()} {
		ser, err := runSquare(ctx, sys, core.GEMM, core.F32, opt, 32)
		if err != nil {
			return err
		}
		label := "explicit scaling "
		if sys.GPU.ImplicitScaling {
			label = "implicit scaling "
		}
		curves = append(curves, curvesFromSeries(ser, false, []xfer.Strategy{xfer.TransferOnce}, label)...)
	}
	ch := plot.Chart{
		Title:  "DAWN GPU SGEMM performance (32 iterations): implicit vs explicit scaling",
		XLabel: "M=N=K", YLabel: "GFLOP/s", LogY: true,
		Curves: curves,
	}
	return renderChart(w, opt, "fig7_dawn_scaling", ch)
}
