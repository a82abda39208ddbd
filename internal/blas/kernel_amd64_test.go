package blas

import "testing"

// TestSIMDWrappersRejectShortOperands checks the memory-safety boundary
// of the assembly leaves: each Go wrapper must panic on any operand one
// element shorter than the leaf would touch, before entering assembly.
// None of these calls reaches the assembly, so the test runs on every
// amd64 CPU; with AVX2/FMA present, the exactly sized calls must run.
func TestSIMDWrappersRejectShortOperands(t *testing.T) {
	const kc, m, lda = 5, 21, 23
	// cut returns n, or n-1 when operand i is the one to cut short.
	cut := func(n, i, short int) int {
		if i == short {
			return n - 1
		}
		return n
	}
	wrappers := []struct {
		name     string
		operands []string
		run      func(short int) // short indexes operands; -1 cuts none
	}{
		{"microKernel16x6", []string{"ap", "bp", "acc"}, func(short int) {
			microKernel16x6(kc, make([]float32, cut(16*kc, 0, short)), make([]float32, cut(6*kc, 1, short)), make([]float32, cut(16*6, 2, short)))
		}},
		{"microKernel8x6", []string{"ap", "bp", "acc"}, func(short int) {
			microKernel8x6(kc, make([]float64, cut(8*kc, 0, short)), make([]float64, cut(6*kc, 1, short)), make([]float64, cut(8*6, 2, short)))
		}},
		{"sgemvCols4", []string{"a", "y"}, func(short int) {
			sgemvCols4(m, 1, 2, 3, 4, make([]float32, cut(3*lda+m, 0, short)), lda, make([]float32, cut(m, 1, short)))
		}},
		{"dgemvCols4", []string{"a", "y"}, func(short int) {
			dgemvCols4(m, 1, 2, 3, 4, make([]float64, cut(3*lda+m, 0, short)), lda, make([]float64, cut(m, 1, short)))
		}},
	}
	_, _, simd := simdPrecisions()
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
		if simd {
			w.run(-1)
		}
	}
}
