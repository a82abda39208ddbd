package gpumodel

import (
	"math"

	"repro/internal/sim/xfer"
)

// SpmvSeconds models i iterations of a CSR SpMV under the given transfer
// strategy. The device kernel is bandwidth-bound with an irregularity
// derating for the gathered x accesses (GPUs tolerate irregular gathers
// worse than CPUs at equal occupancy: the factor applies on top of the
// row-parallelism ramp). Transfers move the CSR arrays and the vectors.
func (g *Model) SpmvSeconds(s xfer.Strategy, storageBytes int64, rows int, irregularity float64, iters int) float64 {
	if iters < 1 || rows <= 0 || storageBytes <= 0 {
		return 0
	}
	if irregularity <= 0 || irregularity > 1 {
		irregularity = 1
	}
	// Below a quarter of the row-parallelism ramp, delivered bandwidth
	// scales with occupancy; beyond it the HBM roofline binds.
	occ := float64(rows) / (float64(rows) + g.GPU.GemvRampRows)
	bw := g.GPU.HBMGBs * irregularity * math.Min(occ/0.25, 1)
	devBytes := storageBytes + int64(rows)*16
	kernelUS := g.GPU.LaunchLatencyUS + g.Lib.SyncPerIterUS + float64(devBytes)/(bw*1e3)
	return g.Seconds(Breakdown{
		KernelUS: kernelUS * float64(iters),
		ToDev:    storageBytes + int64(rows)*8, // matrix + x
		FromDev:  int64(rows) * 8,              // y
		Iters:    iters,
	}, s)
}
