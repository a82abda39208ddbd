package blas

// The amd64 SIMD leaves of the GEMM and GEMV drivers (kernel_amd64.s) and
// the CPU probe that selects them: AVX-512 GEMM leaves where the CPU and
// the operating system support them, AVX2/FMA leaves otherwise. The
// assembly has no bounds checks, so each leaf is reached only through a
// Go wrapper that checks every slice it hands over: those checks are the
// package's memory-safety boundary.

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0.
func xgetbv0() (eax, edx uint32)

//go:noescape
func dgemmKernel8x6(kc int, alpha float64, ap, bp []float64, beta float64, c []float64, ldc int)

//go:noescape
func sgemmKernel16x6(kc int, alpha float32, ap, bp []float32, beta float32, c []float32, ldc int)

//go:noescape
func dgemmKernel16x12(kc int, alpha float64, ap, bp []float64, beta float64, c []float64, ldc int)

//go:noescape
func sgemmKernel32x12(kc int, alpha float32, ap, bp []float32, beta float32, c []float32, ldc int)

//go:noescape
func spackRuns32(n, kc int, src []float32, ld int, dst []float32)

//go:noescape
func dpackRuns16(n, kc int, src []float64, ld int, dst []float64)

//go:noescape
func spackCols12(n, kb, kc int, src []float32, ld int, dst []float32)

//go:noescape
func dpackCols12(n, kb, kc int, src []float64, ld int, dst []float64)

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

// hasAVX512F reports whether, on top of AVX2 and FMA, the CPU implements
// AVX512F and the operating system saves the opmask and ZMM registers.
// The AVX-512 descriptors keep the AVX2 GEMV leaves, so they need both.
func hasAVX512F() bool {
	if !hasAVX2FMA() {
		return false
	}
	// XCR0 bits 1 and 2 as above; bit 5 is the opmask state, bit 6 the
	// upper halves of ZMM0-15, bit 7 ZMM16-31.
	if xcr0, _ := xgetbv0(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	return ebx7&avx512f != 0
}

// The SIMD descriptors are the portable ones with assembly leaves and
// register tiles chosen to fill the register file with accumulators. The
// AVX2 tiles use the sixteen YMM registers: twelve accumulators, two A
// vectors, two B broadcasts. The AVX-512 tiles use 24 of the 32 ZMM
// registers as accumulators beside two A vectors and the B broadcasts.
// nc is a multiple of nr in both. Only the AVX-512 descriptors have
// assembly pack leaves; the AVX2 ones keep the generic packers.
var (
	avx2Prec32   = withLeaves(portable32, 16, 6, 1026, microKernel16x6, packRuns[float32], packCols[float32], sgemvCols4)
	avx2Prec64   = withLeaves(portable64, 8, 6, 1026, microKernel8x6, packRuns[float64], packCols[float64], dgemvCols4)
	avx512Prec32 = withLeaves(portable32, 32, 12, 1032, microKernel32x12, packRuns32, packCols32, sgemvCols4)
	avx512Prec64 = withLeaves(portable64, 16, 12, 1032, microKernel16x12, packRuns64, packCols64, dgemvCols4)
)

// withLeaves copies base with the given register tile, B block width and
// leaves, and a packing-buffer free list of its own.
func withLeaves[T float](base *precision[T], mr, nr, nc int,
	microKernel func(kc int, alpha T, ap, bp []T, beta T, c []T, ldc int),
	packRuns, packCols func(src []T, ld, cnt, kc, w int, dst []T),
	gemvCols4 func(m int, x0, x1, x2, x3 T, a []T, lda int, y []T) int) *precision[T] {
	p := *base
	p.mr, p.nr, p.nc = mr, nr, nc
	p.microKernel, p.gemvCols4 = microKernel, gemvCols4
	p.packRuns, p.packCols = packRuns, packCols
	p.packs = new(packBuffers[T])
	return &p
}

// simdPrecisions lists the SIMD descriptor pairs, widest first, each with
// whether this CPU can run it.
func simdPrecisions() []simdLevel {
	return []simdLevel{
		{name: "avx512", p32: avx512Prec32, p64: avx512Prec64, ok: hasAVX512F()},
		{name: "avx2", p32: avx2Prec32, p64: avx2Prec64, ok: hasAVX2FMA()},
	}
}

// checkTile panics unless the micro-kernel leaf name may touch kc steps of
// an mr-wide A panel and an nr-wide B panel and an mr x nr tile of C with
// leading dimension ldc.
//
//blobvet:hotpath
func checkTile(name string, mr, nr, kc, lenA, lenB, lenC, ldc int) {
	if kc < 0 || lenA/mr < kc || lenB/nr < kc || ldc < mr || lenC < mr || (lenC-mr)/(nr-1) < ldc {
		panic("blas: short operand for " + name)
	}
}

// microKernel32x12 is the float32 AVX-512 micro-kernel for one 32x12 tile.
//
//blobvet:hotpath
func microKernel32x12(kc int, alpha float32, ap, bp []float32, beta float32, c []float32, ldc int) {
	checkTile("sgemmKernel32x12", 32, 12, kc, len(ap), len(bp), len(c), ldc)
	sgemmKernel32x12(kc, alpha, ap, bp, beta, c, ldc)
}

// microKernel16x12 is the float64 AVX-512 micro-kernel for one 16x12 tile.
//
//blobvet:hotpath
func microKernel16x12(kc int, alpha float64, ap, bp []float64, beta float64, c []float64, ldc int) {
	checkTile("dgemmKernel16x12", 16, 12, kc, len(ap), len(bp), len(c), ldc)
	dgemmKernel16x12(kc, alpha, ap, bp, beta, c, ldc)
}

// microKernel16x6 is the float32 AVX2/FMA micro-kernel for one 16x6 tile.
//
//blobvet:hotpath
func microKernel16x6(kc int, alpha float32, ap, bp []float32, beta float32, c []float32, ldc int) {
	checkTile("sgemmKernel16x6", 16, 6, kc, len(ap), len(bp), len(c), ldc)
	sgemmKernel16x6(kc, alpha, ap, bp, beta, c, ldc)
}

// microKernel8x6 is the float64 AVX2/FMA micro-kernel for one 8x6 tile.
//
//blobvet:hotpath
func microKernel8x6(kc int, alpha float64, ap, bp []float64, beta float64, c []float64, ldc int) {
	checkTile("dgemmKernel8x6", 8, 6, kc, len(ap), len(bp), len(c), ldc)
	dgemmKernel8x6(kc, alpha, ap, bp, beta, c, ldc)
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

// The AVX-512 pack leaves cover the two layouts of NoTrans operands at
// the AVX-512 tiles: runs as wide as mr (the A blocks) and 12-wide column
// panels (the B blocks). Each wrapper hands its leaf the full panels and
// the generic packer the rest: an edge panel, the rows of a column panel
// past the last whole 64-byte block, and any other panel width.

// packRuns32 is the float32 AVX-512 packRuns leaf; spackRuns32 copies
// the full 32-wide panels.
//
//blobvet:hotpath
func packRuns32(src []float32, ld, cnt, kc, w int, dst []float32) {
	packRunsWith("spackRuns32", spackRuns32, 32, src, ld, cnt, kc, w, dst)
}

// packRuns64 is the float64 AVX-512 packRuns leaf; dpackRuns16 copies
// the full 16-wide panels.
//
//blobvet:hotpath
func packRuns64(src []float64, ld, cnt, kc, w int, dst []float64) {
	packRunsWith("dpackRuns16", dpackRuns16, 16, src, ld, cnt, kc, w, dst)
}

// packCols32 is the float32 AVX-512 packCols leaf; spackCols12
// transposes full 12-wide panels 16 rows at a time.
//
//blobvet:hotpath
func packCols32(src []float32, ld, cnt, kc, w int, dst []float32) {
	packColsWith("spackCols12", spackCols12, 16, src, ld, cnt, kc, w, dst)
}

// packCols64 is the float64 AVX-512 packCols leaf; dpackCols12
// transposes full 12-wide panels 8 rows at a time.
//
//blobvet:hotpath
func packCols64(src []float64, ld, cnt, kc, w int, dst []float64) {
	packColsWith("dpackCols12", dpackCols12, 8, src, ld, cnt, kc, w, dst)
}

// packRunsWith packs with leaf, which copies n full panels of lw-element
// runs, after checking every element the leaf touches: each source run
// p*lw + l*ld + [0, lw) for p < n, l < kc, and the n*kc*lw packed slots.
//
//blobvet:hotpath
func packRunsWith[T float](name string, leaf func(n, kc int, src []T, ld int, dst []T), lw int, src []T, ld, cnt, kc, w int, dst []T) {
	n := cnt / lw
	if w != lw || n == 0 || kc == 0 {
		packRuns(src, ld, cnt, kc, w, dst)
		return
	}
	if n < 0 || kc < 0 || ld < 0 || len(src) < n*lw || (ld > 0 && (len(src)-n*lw)/ld < kc-1) || len(dst)/lw/kc < n {
		panic("blas: short operand for " + name)
	}
	leaf(n, kc, src, ld, dst)
	if done := n * lw; done < cnt {
		packRuns(src[done:], ld, cnt-done, kc, w, dst[done*kc:])
	}
}

// packColsWith packs with leaf, which transposes n full 12-wide panels
// rows kb at a time (kb a multiple of rows), after checking every element
// the leaf touches: source column p*12 + i holds kb elements from
// (p*12 + i)*ld for p < n, i < 12, and panel p's first kb rows are the
// kb*12 slots from p*kc*12. The generic packer writes the rows past kb.
//
//blobvet:hotpath
func packColsWith[T float](name string, leaf func(n, kb, kc int, src []T, ld int, dst []T), rows int, src []T, ld, cnt, kc, w int, dst []T) {
	const lw = 12
	n, kb := cnt/lw, kc/rows*rows
	if w != lw || n == 0 || kb == 0 {
		packCols(src, ld, cnt, kc, w, dst)
		return
	}
	if n < 0 || kb < 0 || ld < 0 || len(src) < kb || (ld > 0 && (len(src)-kb)/ld < n*lw-1) ||
		len(dst)/lw < kb || (len(dst)-kb*lw)/lw/kc < n-1 {
		panic("blas: short operand for " + name)
	}
	leaf(n, kb, kc, src, ld, dst)
	for p := 0; kb < kc && p < n; p++ {
		packCols(src[p*lw*ld+kb:], ld, lw, kc-kb, lw, dst[p*kc*lw+kb*lw:])
	}
	if done := n * lw; done < cnt {
		packCols(src[done*ld:], ld, cnt-done, kc, w, dst[done*kc:])
	}
}
