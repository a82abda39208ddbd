package main

import (
	"time"

	"repro/bench_data"
	"repro/internal/core"
	"repro/internal/sim/xfer"
)

// simCost is the per-call price of the timing models and the detector,
// measured by replaying the paper grid's problem sizes through them
// directly, outside any sweep.
type simCost struct {
	cpuNs, gpuNs, blackboxNs, observeNs float64
}

// simProbe replays every size of every (system, problem, precision) cell
// through sys.CPU.TimeGemm/TimeGemv and sys.GPU.TimeGemm/TimeGemv (all
// three strategies), once with the analytic roofline and once with the
// efftab tables armed, then feeds the roofline times to three
// ThresholdDetectors per cell.
func simProbe(grid []sweepSpec) simCost {
	tables, _ := benchdata.Default() // loaded and checked in set-up
	type cell struct {
		c    sweepSpec
		dims []core.Dims
	}
	var cells []cell
	total := 0
	for _, c := range grid {
		if c.iters != 8 || c.model != core.ModelRoofline {
			continue
		}
		var dims []core.Dims
		for p := 1; c.pt.Dims(p).MaxDim() <= 4096; p++ {
			dims = append(dims, c.pt.Dims(p))
		}
		cells = append(cells, cell{c, dims})
		total += len(dims)
	}
	cpuSec := make([]float64, 0, total)
	gpuSec := make([][3]float64, 0, total)

	var cost simCost
	t0 := time.Now()
	for _, cl := range cells {
		sys, es, gemm := cl.c.sys, cl.c.prec.ElemSize(), cl.c.pt.Kernel == core.GEMM
		for _, d := range cl.dims {
			var s float64
			if gemm {
				s, _ = sys.CPU.TimeGemm(es, d.M, d.N, d.K, true, 8)
			} else {
				s, _ = sys.CPU.TimeGemv(es, d.M, d.N, true, 8)
			}
			cpuSec = append(cpuSec, s)
		}
	}
	cost.cpuNs = float64(time.Since(t0).Nanoseconds()) / float64(total)

	t0 = time.Now()
	for _, cl := range cells {
		sys, es, gemm := cl.c.sys, cl.c.prec.ElemSize(), cl.c.pt.Kernel == core.GEMM
		for _, d := range cl.dims {
			var g [3]float64
			for _, st := range xfer.Strategies {
				if gemm {
					g[st], _ = sys.GPU.TimeGemm(st, es, d.M, d.N, d.K, true, 8)
				} else {
					g[st], _ = sys.GPU.TimeGemv(st, es, d.M, d.N, true, 8)
				}
			}
			gpuSec = append(gpuSec, g)
		}
	}
	cost.gpuNs = float64(time.Since(t0).Nanoseconds()) / float64(3*total)

	var sink float64
	t0 = time.Now()
	for _, cl := range cells {
		sys, es, gemm := cl.c.sys, cl.c.prec.ElemSize(), cl.c.pt.Kernel == core.GEMM
		sys.CPU.Eff, sys.GPU.Eff = tables.CPU, tables.GPU
		for _, d := range cl.dims {
			var s float64
			if gemm {
				s, _ = sys.CPU.TimeGemm(es, d.M, d.N, d.K, true, 8)
			} else {
				s, _ = sys.CPU.TimeGemv(es, d.M, d.N, true, 8)
			}
			sink += s
			for _, st := range xfer.Strategies {
				if gemm {
					s, _ = sys.GPU.TimeGemm(st, es, d.M, d.N, d.K, true, 8)
				} else {
					s, _ = sys.GPU.TimeGemv(st, es, d.M, d.N, true, 8)
				}
				sink += s
			}
		}
	}
	cost.blackboxNs = float64(time.Since(t0).Nanoseconds()) / float64(4*total)

	found := 0
	t0 = time.Now()
	i := 0
	for _, cl := range cells {
		var dets [3]core.ThresholdDetector
		for _, d := range cl.dims {
			for st := range dets {
				dets[st].ObserveTimes(d, cpuSec[i], gpuSec[i][st])
			}
			i++
		}
		for st := range dets {
			if _, ok := dets[st].Threshold(); ok {
				found++
			}
		}
	}
	cost.observeNs = float64(time.Since(t0).Nanoseconds()) / float64(3*total)
	simSink = sink + float64(found)
	return cost
}

// simSink keeps the replayed results live so the compiler cannot drop the
// calls being timed.
var simSink float64
