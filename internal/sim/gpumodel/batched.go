package gpumodel

import (
	"math"

	"repro/internal/flops"
	"repro/internal/sim/xfer"
)

// GemmBatchedSeconds models i iterations of a batched GEMM under the given
// transfer strategy: batch independent m x n x k problems in one kernel
// (cublasGemmBatched and friends, §V future work). One launch covers the
// whole batch and the occupancy ramp sees batch*m*n output elements, which
// is why batching moves the offload threshold of small problems sharply
// down (§V: "batched kernels can greatly improve GEMM performance for small
// problem sizes if many can be computed concurrently").
func (g *Model) GemmBatchedSeconds(s xfer.Strategy, elemSize, m, n, k, batch int, beta0 bool, iters int) float64 {
	if iters < 1 || batch < 1 || m <= 0 || n <= 0 {
		return 0
	}
	beta := flops.Beta{IsZero: beta0}
	flTotal := flops.Gemm(m, n, k, beta) * int64(batch)
	devBytes := flops.GemmBytes(m, n, k, elemSize, beta) * int64(batch)
	outElems := float64(m) * float64(n) * float64(batch)
	gf := g.achievedGF(elemSize, m, n, k, outElems)
	if g.Lib.GemmQuirk != nil {
		gf = math.Max(g.Lib.GemmQuirk(elemSize, m, n, k, gf), 1e-6)
	}
	toDev, fromDev := xfer.GemmBytes(elemSize, m, n, k)
	return g.Seconds(Breakdown{
		KernelUS: g.kernelUS(elemSize, flTotal, devBytes, gf) * float64(iters),
		ToDev:    toDev * int64(batch),
		FromDev:  fromDev * int64(batch),
		Iters:    iters,
	}, s)
}
