package blas

// The amd64 SIMD leaves of the GEMM and GEMV drivers (kernel_amd64.s) and
// the CPU probe that selects them. The assembly has no bounds checks, so
// each leaf is reached only through a Go wrapper that checks every slice
// it hands over: those checks are the package's memory-safety boundary.

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0.
func xgetbv0() (eax, edx uint32)

//go:noescape
func dgemmKernel8x6(kc int, ap, bp, acc []float64)

//go:noescape
func sgemmKernel16x6(kc int, ap, bp, acc []float32)

//go:noescape
func dgemvCols4Kernel(m int, x0, x1, x2, x3 float64, a []float64, lda int, y []float64)

//go:noescape
func sgemvCols4Kernel(m int, x0, x1, x2, x3 float32, a []float32, lda int, y []float32)

// hasAVX2FMA reports whether the CPU implements AVX2 and FMA and the
// operating system saves the YMM registers across context switches.
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// XCR0 bit 1 is the SSE (XMM) state, bit 2 the AVX (upper YMM) state.
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// simdPrecisions returns the AVX2/FMA descriptors: the portable ones with
// register tiles that fill the sixteen YMM registers (twelve accumulators,
// two A vectors, two B broadcasts), nc a multiple of nr, and the SIMD GEMV
// column kernel. ok reports whether this CPU can run them.
func simdPrecisions() (p32 *precision[float32], p64 *precision[float64], ok bool) {
	s, d := *portable32, *portable64
	s.mr, s.nr, s.nc = 16, 6, 1026
	s.microKernel, s.gemvCols4 = microKernel16x6, sgemvCols4
	d.mr, d.nr, d.nc = 8, 6, 1026
	d.microKernel, d.gemvCols4 = microKernel8x6, dgemvCols4
	return &s, &d, hasAVX2FMA()
}

// microKernel16x6 is the float32 AVX2/FMA micro-kernel for one 16x6 tile.
//
//blobvet:hotpath
func microKernel16x6(kc int, ap, bp, acc []float32) {
	if kc < 0 || len(ap)/16 < kc || len(bp)/6 < kc || len(acc) < 16*6 {
		panic("blas: short operand for sgemmKernel16x6")
	}
	sgemmKernel16x6(kc, ap, bp, acc)
}

// microKernel8x6 is the float64 AVX2/FMA micro-kernel for one 8x6 tile.
//
//blobvet:hotpath
func microKernel8x6(kc int, ap, bp, acc []float64) {
	if kc < 0 || len(ap)/8 < kc || len(bp)/6 < kc || len(acc) < 8*6 {
		panic("blas: short operand for dgemmKernel8x6")
	}
	dgemmKernel8x6(kc, ap, bp, acc)
}

// sgemvCols4 is the float32 AVX2/FMA column kernel of gemvN: it applies
// four columns of a to the longest prefix of y that is a multiple of 16
// rows and returns that prefix's length.
//
//blobvet:hotpath
func sgemvCols4(m int, x0, x1, x2, x3 float32, a []float32, lda int, y []float32) int {
	if m < 0 || lda < 0 || len(y) < m || len(a) < m || (len(a)-m)/3 < lda {
		panic("blas: short operand for sgemvCols4Kernel")
	}
	done := m &^ 15
	if done > 0 {
		sgemvCols4Kernel(done, x0, x1, x2, x3, a, lda, y)
	}
	return done
}

// dgemvCols4 is the float64 AVX2/FMA column kernel of gemvN: it applies
// four columns of a to the longest prefix of y that is a multiple of 8
// rows and returns that prefix's length.
//
//blobvet:hotpath
func dgemvCols4(m int, x0, x1, x2, x3 float64, a []float64, lda int, y []float64) int {
	if m < 0 || lda < 0 || len(y) < m || len(a) < m || (len(a)-m)/3 < lda {
		panic("blas: short operand for dgemvCols4Kernel")
	}
	done := m &^ 7
	if done > 0 {
		dgemvCols4Kernel(done, x0, x1, x2, x3, a, lda, y)
	}
	return done
}
