package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/flops"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// FlopsModel quantifies §III-A's argument for the exact FLOP model: the
// relative error of the common 2MNK / 2MN approximations across the
// paper's problem shapes. Thin-K GEMMs and all GEMVs make the
// approximation materially wrong.
func FlopsModel(_ context.Context, w io.Writer, _ Options) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Kernel\tShape\tExact (b!=0)\tApprox\tUndercount\n")
	gemmShapes := []core.Dims{
		{M: 4096, N: 4096, K: 4096},
		{M: 8192, N: 8192, K: 4}, // Table I shape
		{M: 2048, N: 2048, K: 32},
		{M: 32, N: 32, K: 4096},
		{M: 256, N: 256, K: 4096},
	}
	for _, d := range gemmShapes {
		exact := flops.Gemm(d.M, d.N, d.K, flops.Beta{IsZero: false})
		approx := flops.GemmApprox(d.M, d.N, d.K)
		fmt.Fprintf(tw, "GEMM\t%v\t%d\t%d\t%.2f%%\n", d, exact, approx,
			100*float64(exact-approx)/float64(exact))
	}
	gemvShapes := []core.Dims{
		{M: 4096, N: 4096},
		{M: 4096, N: 32},
		{M: 32, N: 4096},
	}
	for _, d := range gemvShapes {
		exact := flops.Gemv(d.M, d.N, flops.Beta{IsZero: false})
		approx := flops.GemvApprox(d.M, d.N)
		fmt.Fprintf(tw, "GEMV\t{%d, %d}\t%d\t%d\t%.2f%%\n", d.M, d.N, exact, approx,
			100*float64(exact-approx)/float64(exact))
	}
	return tw.Flush()
}

// Xnack reproduces the §IV HSA_XNACK observation on LUMI: with XNACK
// disabled no pages migrate and every USM access crosses the interconnect,
// degrading USM transfers by up to 40x and destroying any USM offload
// threshold.
func Xnack(ctx context.Context, w io.Writer, opt Options) error {
	opt = opt.Normalize()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Config\tIterations\tUSM threshold (SGEMM)\tUSM time @ M=N=K=2048\n")
	for _, sys := range []systems.System{systems.LUMI(), systems.LUMINoXnack()} {
		for _, it := range []int{8, 128} {
			ser, err := runSquare(ctx, sys, core.GEMM, core.F32, opt, it)
			if err != nil {
				return err
			}
			t2048 := sys.GPU.GemmSeconds(xfer.Unified, 4, 2048, 2048, 2048, true, it)
			fmt.Fprintf(tw, "%s\t%d\t%s\t%.2f ms\n", sys.Name, it,
				ser.Thresholds[xfer.Unified], t2048*1e3)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	// The headline ratio: USM data movement with vs without XNACK.
	lumi, noX := systems.LUMI(), systems.LUMINoXnack()
	with := lumi.GPU.USM.MoveSeconds(lumi.GPU.Link, 64<<20, 16<<20, 1)
	without := noX.GPU.USM.MoveSeconds(noX.GPU.Link, 64<<20, 16<<20, 1)
	fmt.Fprintf(w, "USM move penalty without XNACK (64 MiB in, 16 MiB out, 1 iter): %.1fx\n", without/with)
	return nil
}

// PerfStat reproduces the §IV-B perf-stat evidence: AOCL keeps a single CPU
// busy for GEMV but >50 CPUs for GEMM, explaining LUMI's weak CPU GEMV.
func PerfStat(_ context.Context, w io.Writer, _ Options) error {
	lumi := systems.LUMI()
	gemv := lumi.CPU.EffectiveCPUs("gemv", 4, 2048, 2048, 0)
	gemm := lumi.CPU.EffectiveCPUs("gemm", 4, 2048, 2048, 2048)
	fmt.Fprintf(w, "SGEMV M=N=2048, 1000 iterations: %.2f CPUs utilised\n", gemv)
	fmt.Fprintf(w, "SGEMM M=N=K=2048, 1000 iterations: %.1f CPUs utilised\n", gemm)
	ob := systems.LUMIOpenBLAS()
	fmt.Fprintf(w, "OpenBLAS SGEMV M=N=2048: %.1f CPUs utilised\n", ob.CPU.EffectiveCPUs("gemv", 4, 2048, 2048, 0))
	return nil
}
