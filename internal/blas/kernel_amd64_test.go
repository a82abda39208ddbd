package blas

import "testing"

// TestSIMDWrappersRejectShortOperands checks the memory-safety boundary
// of the assembly leaves: each Go wrapper must panic on any operand one
// element shorter than the leaf would touch, before entering assembly.
// A GEMM tile of C is short when its leading dimension is below mr or
// the slice ends before the last column's mr elements. The pack wrappers
// are called on full panels only, so that their leaves would touch every
// element of both operands. None of these calls reaches the assembly, so
// the test runs on every amd64 CPU; where the probe allows a wrapper's
// leaves, the exactly sized call must run.
func TestSIMDWrappersRejectShortOperands(t *testing.T) {
	const kc, m, lda = 5, 21, 23
	// cut returns n, or n-1 when operand i is the one to cut short.
	cut := func(n, i, short int) int {
		if i == short {
			return n - 1
		}
		return n
	}
	// tile runs a GEMM micro-kernel wrapper on an mr x nr tile through
	// call, which allocates operands of the given lengths; the operands
	// are ap, bp, c and ldc, in that order.
	tile := func(mr, nr int, call func(kc, lenA, lenB, lenC, ldc int)) func(short int) {
		return func(short int) {
			ldc, lenC := mr+3, (nr-1)*(mr+3)+mr
			if short == 3 {
				ldc, lenC = mr-1, nr*mr
			}
			call(kc, cut(mr*kc, 0, short), cut(nr*kc, 1, short), cut(lenC, 2, short), ldc)
		}
	}
	tile32 := func(mr, nr int, kernel func(kc int, alpha float32, ap, bp []float32, beta float32, c []float32, ldc int)) func(short int) {
		return tile(mr, nr, func(kc, lenA, lenB, lenC, ldc int) {
			kernel(kc, 1, make([]float32, lenA), make([]float32, lenB), 0.5, make([]float32, lenC), ldc)
		})
	}
	tile64 := func(mr, nr int, kernel func(kc int, alpha float64, ap, bp []float64, beta float64, c []float64, ldc int)) func(short int) {
		return tile(mr, nr, func(kc, lenA, lenB, lenC, ldc int) {
			kernel(kc, 1, make([]float64, lenA), make([]float64, lenB), 0.5, make([]float64, lenC), ldc)
		})
	}
	// packs runs a pack wrapper through call on two full panels of its
	// leaf's width lw, kc deep (a whole number of the leaf's row blocks,
	// so the leaf touches every element), with ld padded by 3; the
	// operands are src and dst, in that order.
	packs := func(runs bool, lw, kc int, call func(lenSrc, lenDst, ld, cnt, kc, w int)) func(short int) {
		return func(short int) {
			cnt := 2 * lw
			ld, lenSrc := cnt+3, (kc-1)*(cnt+3)+cnt
			if !runs {
				ld, lenSrc = kc+3, (cnt-1)*(kc+3)+kc
			}
			call(cut(lenSrc, 0, short), cut(cnt*kc, 1, short), ld, cnt, kc, lw)
		}
	}
	pack32 := func(leaf func(src []float32, ld, cnt, kc, w int, dst []float32)) func(lenSrc, lenDst, ld, cnt, kc, w int) {
		return func(lenSrc, lenDst, ld, cnt, kc, w int) {
			leaf(make([]float32, lenSrc), ld, cnt, kc, w, make([]float32, lenDst))
		}
	}
	pack64 := func(leaf func(src []float64, ld, cnt, kc, w int, dst []float64)) func(lenSrc, lenDst, ld, cnt, kc, w int) {
		return func(lenSrc, lenDst, ld, cnt, kc, w int) {
			leaf(make([]float64, lenSrc), ld, cnt, kc, w, make([]float64, lenDst))
		}
	}
	packOperands := []string{"src", "dst"}
	gemmOperands := []string{"ap", "bp", "c", "ldc"}
	wrappers := []struct {
		name     string
		level    string // the SIMD descriptor whose leaf the wrapper guards
		operands []string
		run      func(short int) // short indexes operands; -1 cuts none
	}{
		{"microKernel32x12", "avx512", gemmOperands, tile32(32, 12, microKernel32x12)},
		{"microKernel16x12", "avx512", gemmOperands, tile64(16, 12, microKernel16x12)},
		{"microKernel16x6", "avx2", gemmOperands, tile32(16, 6, microKernel16x6)},
		{"microKernel8x6", "avx2", gemmOperands, tile64(8, 6, microKernel8x6)},
		{"packRuns32", "avx512", packOperands, packs(true, 32, kc, pack32(packRuns32))},
		{"packRuns64", "avx512", packOperands, packs(true, 16, kc, pack64(packRuns64))},
		{"packCols32", "avx512", packOperands, packs(false, 12, 32, pack32(packCols32))},
		{"packCols64", "avx512", packOperands, packs(false, 12, 16, pack64(packCols64))},
		{"sgemvCols4", "avx2", []string{"a", "y"}, func(short int) {
			sgemvCols4(m, 1, 2, 3, 4, make([]float32, cut(3*lda+m, 0, short)), lda, make([]float32, cut(m, 1, short)))
		}},
		{"dgemvCols4", "avx2", []string{"a", "y"}, func(short int) {
			dgemvCols4(m, 1, 2, 3, 4, make([]float64, cut(3*lda+m, 0, short)), lda, make([]float64, cut(m, 1, short)))
		}},
	}
	allowed := map[string]bool{}
	for _, l := range simdPrecisions() {
		allowed[l.name] = l.ok
	}
	for _, w := range wrappers {
		for short, operand := range w.operands {
			t.Run(w.name+"/"+operand, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted %s one element short", w.name, operand)
					}
				}()
				w.run(short)
			})
		}
		if allowed[w.level] {
			w.run(-1)
		}
	}
}
