package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/flops"
	"repro/internal/matrix"
)

// The live-blas workload is a closed loop over the real pure-Go kernels,
// blas.Opt{S,D}gemm and blas.Opt{S,D}gemv, pinned to one thread. Each of
// its 14 cases gets an equal share of the window, in one slice per round,
// and reports its rate at its median call time: on a shared host a burst
// of interference lengthens a few calls, which moves a mean over the
// window but not the median call.

// caseShape is one kernel case; the same shapes run in both precisions
// except the out-of-cache GEMV, whose size depends on the element size.
type caseShape struct {
	name    string
	gemv    bool
	m, n, k int
	// check is the reduced square size the reference comparison uses when
	// the reference kernel is too slow at full size (0: full size).
	check int
}

// oocacheDim is the out-of-cache GEMV's order: f32 10752^2 and f64
// 7680^2 are both at least 420 MiB, 4x the 105 MiB L3 of the 2-CPU host
// this benchmark was built on.
func oocacheDim(prec core.Precision) int {
	if prec == core.F32 {
		return 10752
	}
	return 7680
}

func blasShapes(prec core.Precision) []caseShape {
	oo := oocacheDim(prec)
	return []caseShape{
		{name: "square-64", m: 64, n: 64, k: 64},
		{name: "square-256", m: 256, n: 256, k: 256},
		{name: "square-1024", m: 1024, n: 1024, k: 1024, check: 512},
		{name: "thin_k32", m: 2048, n: 2048, k: 32},
		{name: "tall_k_16m", m: 128, n: 128, k: 2048},
		{name: "square-2048", gemv: true, m: 2048, n: 2048},
		{name: "oocache", gemv: true, m: oo, n: oo},
	}
}

// blasCase is one built case: operands filled, page-touched and bound
// into call.
type blasCase struct {
	id     string // e.g. "sgemm.square-64"
	span   string // "blas." + id, built once so the timed loop allocates nothing
	gemv   bool
	flops  int64 // exact §III-A count per call, beta = 0
	bytes  int64 // GEMV only: computed bytes per call, from the array sizes
	aBytes int64 // size of the A operand
	call   func()
	// check recomputes the case with the reference kernel and returns the
	// optimized and reference output checksums.
	check func() (opt, ref float64)
}

type gemmFn[T float32 | float64] func(transA, transB blas.Transpose, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int)
type gemvFn[T float32 | float64] func(trans blas.Transpose, m, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int)

// kernelSet binds one precision's kernels to the matrix layer's fill and
// checksum for that element type.
type kernelSet[T float32 | float64] struct {
	prefix        string
	prec          core.Precision
	gemm, refGemm gemmFn[T]
	gemv, refGemv gemvFn[T]
	fill          func(rows, cols int, rng *matrix.RNG) []T
	checksum      func(rows, cols int, data []T) float64
}

var f32Kernels = kernelSet[float32]{
	prefix: "s", prec: core.F32,
	gemm: blas.OptSgemm, refGemm: blas.RefSgemm,
	gemv: blas.OptSgemv, refGemv: blas.RefSgemv,
	fill: func(rows, cols int, rng *matrix.RNG) []float32 {
		m := matrix.NewDense32(rows, cols)
		m.Fill(rng)
		return m.Data
	},
	checksum: func(rows, cols int, data []float32) float64 {
		return (&matrix.Dense32{Rows: rows, Cols: cols, Ld: rows, Data: data}).Checksum()
	},
}

var f64Kernels = kernelSet[float64]{
	prefix: "d", prec: core.F64,
	gemm: blas.OptDgemm, refGemm: blas.RefDgemm,
	gemv: blas.OptDgemv, refGemv: blas.RefDgemv,
	fill: func(rows, cols int, rng *matrix.RNG) []float64 {
		m := matrix.NewDense64(rows, cols)
		m.Fill(rng)
		return m.Data
	},
	checksum: func(rows, cols int, data []float64) float64 {
		return (&matrix.Dense64{Rows: rows, Cols: cols, Ld: rows, Data: data}).Checksum()
	},
}

// buildCases allocates, seeded-fills and page-touches one precision's
// operands. fillTime accumulates the time spent in the matrix layer's Fill.
func buildCases[T float32 | float64](ks kernelSet[T], seed int64, fillTime *time.Duration) []blasCase {
	es := ks.prec.ElemSize()
	fill := func(rows, cols int, rng *matrix.RNG) []T {
		t0 := time.Now()
		defer func() { *fillTime += time.Since(t0) }()
		return ks.fill(rows, cols, rng)
	}
	var cases []blasCase
	for i, s := range blasShapes(ks.prec) {
		rng := matrix.NewRNG(uint64(seed)*1000 + uint64(i) + uint64(es)*100)
		cases = append(cases, newCase(ks, s, rng, fill))
	}
	return cases
}

// newCase builds one case. Its check compares the output the last call
// left behind with the reference kernel's, so a case that was never run
// fails its check.
func newCase[T float32 | float64](ks kernelSet[T], s caseShape, rng *matrix.RNG, fill func(rows, cols int, rng *matrix.RNG) []T) blasCase {
	es := ks.prec.ElemSize()
	beta0 := flops.Beta{IsZero: true}
	if s.gemv {
		a, x := fill(s.m, s.n, rng), fill(s.n, 1, rng)
		y := touched[T](s.m)
		id := ks.prefix + "gemv." + s.name
		return blasCase{
			id: id, span: "blas." + id, gemv: true,
			flops:  flops.Gemv(s.m, s.n, beta0),
			bytes:  flops.GemvBytes(s.m, s.n, es, beta0),
			aBytes: int64(s.m) * int64(s.n) * int64(es),
			call:   func() { ks.gemv(blas.NoTrans, s.m, s.n, 1, a, s.m, x, 1, 0, y, 1) },
			check: func() (float64, float64) {
				ref := make([]T, s.m)
				ks.refGemv(blas.NoTrans, s.m, s.n, 1, a, s.m, x, 1, 0, ref, 1)
				return ks.checksum(s.m, 1, y), ks.checksum(s.m, 1, ref)
			},
		}
	}
	a, b := fill(s.m, s.k, rng), fill(s.k, s.n, rng)
	c := touched[T](s.m * s.n)
	id := ks.prefix + "gemm." + s.name
	return blasCase{
		id: id, span: "blas." + id,
		flops:  flops.Gemm(s.m, s.n, s.k, beta0),
		aBytes: int64(s.m) * int64(s.k) * int64(es),
		call:   func() { ks.gemm(blas.NoTrans, blas.NoTrans, s.m, s.n, s.k, 1, a, s.m, b, s.k, 0, c, s.m) },
		check: func() (float64, float64) {
			// A reduced check recomputes the leading block with both
			// kernels instead of reading c.
			m, n, k, out := s.m, s.n, s.k, c
			if s.check > 0 {
				m, n, k = s.check, s.check, s.check
				out = make([]T, m*n)
				ks.gemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, a, s.m, b, s.k, 0, out, m)
			}
			ref := make([]T, m*n)
			ks.refGemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, a, s.m, b, s.k, 0, ref, m)
			return ks.checksum(m, n, out), ks.checksum(m, n, ref)
		},
	}
}

// touched allocates n zeroed elements and writes every one, so the pages
// are resident before the window instead of faulting in the first call.
func touched[T float32 | float64](n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = 0
	}
	return s
}

type blasSetup struct {
	cases    []blasCase
	fillTime time.Duration
}

func (s blasSetup) byID(id string) blasCase {
	for _, c := range s.cases {
		if c.id == id {
			return c
		}
	}
	panic("live-blas: no case " + id)
}

// liveRounds is how many times the window cycles through the cases. A
// square-1024 call takes most of a second on one thread, so more rounds
// would stretch the window well past its nominal length.
const liveRounds = 4

// caseResult is one case's measurement over its share of the window.
type caseResult struct {
	calls int64
	// roundCPU holds, per round, the thread CPU ms per call over the
	// case's slice.
	roundCPU []float64
	callMs   []float64
	// allocsPerCall is measured after the window, traced runs only.
	allocsPerCall float64
}

func liveBLAS(cfg config) (outcome, error) {
	// The kernels run on this goroutine (one BLAS thread), so with it
	// locked to its OS thread the thread's CPU time is the kernels', not
	// that of the work occupying the other CPUs.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	stopOccupy := occupy()
	defer func() { stopOccupy() }()
	var fills []float64
	build := func() (blasSetup, error) {
		var s blasSetup
		s.cases = append(buildCases(f32Kernels, cfg.seed, &s.fillTime), buildCases(f64Kernels, cfg.seed, &s.fillTime)...)
		fills = append(fills, s.fillTime.Seconds())
		for _, c := range s.cases {
			if c.id[1:] == "gemv.oocache" && cfg.host.LLCBytes > 0 && c.aBytes < 4*cfg.host.LLCBytes {
				return s, fmt.Errorf("%s array is %d MiB, smaller than 4x the %d MiB last-level cache: it would measure the cache, not memory",
					c.id, c.aBytes>>20, cfg.host.LLCBytes>>20)
			}
		}
		return s, nil
	}
	setup, setupS, err := timeSetups(cfg.cal, build, func(blasSetup) {})
	if err != nil {
		return outcome{}, err
	}
	if cfg.host.LLCBytes == 0 {
		cfg.logf("live-blas: the LLC size is unknown; the out-of-cache GEMV could not be checked against it")
	}
	cfg.logf("live-blas: out-of-cache GEMV sizes sgemv %d^2 (%d MiB), dgemv %d^2 (%d MiB); LLC %d MiB",
		oocacheDim(core.F32), setup.byID("sgemv.oocache").aBytes>>20,
		oocacheDim(core.F64), setup.byID("dgemv.oocache").aBytes>>20, cfg.host.LLCBytes>>20)

	out := outcome{metrics: map[string]float64{}, ref: kernelRef, layers: []string{"blas.", "matrix.", "runtime."}}
	// The window is cut into rounds, and every round gives each case one
	// equal slice, so a stretch of interference from the rest of the host
	// is spread over all cases instead of landing on whichever ran then.
	// Reference slices run between case slices.
	slice := time.Duration(cfg.seconds * workShare / float64(liveRounds*len(setup.cases)) * float64(time.Second))
	results := make([]caseResult, len(setup.cases))
	tk := cfg.cal.ticker()
	gc0 := readGCClock()
	for round := 0; round < liveRounds; round++ {
		for i, c := range setup.cases {
			r := &results[i]
			caseID := cfg.tr.begin("blas.case", 0)
			cpu0, t0 := threadCPUTime(), time.Now()
			n := 0
			for ; n == 0 || time.Since(t0) < slice; n++ {
				start := time.Now()
				c.call()
				end := time.Now()
				cfg.tr.record(c.span, caseID, start, end)
				r.callMs = append(r.callMs, ms(end.Sub(start)))
			}
			r.roundCPU = append(r.roundCPU, ms(threadCPUTime()-cpu0)/float64(n))
			r.calls += int64(n)
			out.attempted += int64(n)
			cfg.tr.end(caseID)
			tk.tick()
		}
	}
	gc1 := readGCClock()
	stopOccupy()
	stopOccupy = func() {}
	heap := liveHeapMB()
	if cfg.traced() {
		// Allocations are counted over a few bare calls after the window,
		// so the timing loop's own bookkeeping is not charged to the kernel.
		for i, c := range setup.cases {
			n := max(1, min(16, results[i].calls/4))
			a0 := readAllocClock()
			for j := int64(0); j < n; j++ {
				c.call()
			}
			results[i].allocsPerCall = float64(readAllocClock().mallocs-a0.mallocs) / float64(n)
		}
	}

	for i, c := range setup.cases {
		opt, ref := c.check()
		if !matrix.ChecksumsMatch(opt, ref) {
			out.failed += results[i].calls
			cfg.logf("live-blas: %s checksum %g differs from the reference %g by more than %.1f%%",
				c.id, opt, ref, 100*matrix.ChecksumTolerance)
		}
	}

	var rates, p50s, p90s, cpus, gemmGF, gemvGB []float64
	m := out.metrics
	for i, c := range setup.cases {
		r := results[i]
		p50 := percentile(r.callMs, 50)
		perSecond := 1e3 / p50
		rates = append(rates, perSecond)
		p50s = append(p50s, p50)
		p90s = append(p90s, percentile(r.callMs, 90))
		cpus = append(cpus, percentile(r.roundCPU, 50))
		label, rate := "GFLOP/s", float64(c.flops)*perSecond/1e9
		if c.gemv {
			label, rate = "computed GB/s", float64(c.bytes)*perSecond/1e9
			gemvGB = append(gemvGB, rate)
			m["blas."+c.id+".gbs"] = rate
		} else {
			gemmGF = append(gemmGF, rate)
			m["blas."+c.id+".gflops"] = rate
			m["blas."+c.id+".allocs_per_call"] = r.allocsPerCall
		}
		cfg.logf("live-blas: %-20s calls=%-6d ms/call p10 %8.3f p50 %8.3f p90 %8.3f  %.4f %s at the median call",
			c.id, r.calls, percentile(r.callMs, 10), p50, percentile(r.callMs, 90), rate, label)
	}
	cfg.logf("live-blas: gemm_gflops=%.4f (geomean of %d GEMM cases)  gemv_gbs=%.4f computed GB/s (geomean of %d GEMV cases)  GC share of CPU %s",
		geomean(gemmGF), len(gemmGF), geomean(gemvGB), len(gemvGB), gcFraction(gc0, gc1))
	out.e2e = map[string]float64{
		"setup_s":       setupS,
		"live_heap_mb":  heap,
		"ops_per_s":     geomean(rates),
		"p50_ms":        geomean(p50s),
		"p90_ms":        geomean(p90s),
		"cpu_ms_per_op": geomean(cpus),
	}
	if !cfg.traced() {
		return out, nil
	}
	m["blas.gemm.gflops_geomean"] = geomean(gemmGF)
	m["blas.gemv.gbs_geomean"] = geomean(gemvGB)
	m["matrix.triad_gbs"] = cfg.host.TriadGBs
	m["matrix.fill_s"] = percentile(fills, 50)
	m["blas.gemv.oocache.bw_fraction"] = geomean([]float64{m["blas.sgemv.oocache.gbs"], m["blas.dgemv.oocache.gbs"]}) / cfg.host.TriadGBs
	m["runtime.gc_cpu_fraction"] = gcFraction(gc0, gc1).value()
	m["blas.sgemm.square-1024.speedup_nt"] = speedupNT(setup.byID("sgemm.square-1024"), m["blas.sgemm.square-1024.gflops"], cfg.tr)
	return out, nil
}

// speedupNT reruns the f32 square-1024 case with one BLAS thread per CPU
// for about a second and returns its rate over the one-thread rate.
func speedupNT(c blasCase, oneThreadGflops float64, tr *tracer) float64 {
	blas.SetThreads(runtime.NumCPU())
	defer blas.SetThreads(1)
	c.call() // warm the worker pool
	var calls int64
	t0 := time.Now()
	for calls < 2 || time.Since(t0) < time.Second {
		start := time.Now()
		c.call()
		tr.record("blas."+c.id+".nt", 0, start, time.Now())
		calls++
	}
	return float64(c.flops) * float64(calls) / time.Since(t0).Seconds() / 1e9 / oneThreadGflops
}
