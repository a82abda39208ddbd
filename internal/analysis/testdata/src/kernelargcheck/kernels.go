// Fixture for the kernelargcheck analyzer. Loaded by analysistest with
// import path "fixture/internal/blas" so the path-scoped analyzer fires.
// Seeded violations carry // want expectations; the compliant kernels at
// the bottom must stay diagnostic-free.
package blas

import "fmt"

func checkGemm(m, n, k, lda, ldb, ldc int) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("blas: negative dim m=%d n=%d k=%d", m, n, k))
	}
}

func checkGemv(m, n, lda int) {
	if m < 0 || n < 0 {
		panic("blas: negative dim")
	}
}

// BadGemmNoCheck indexes its operands without ever validating them.
func BadGemmNoCheck(m, n, k int, a, b, c []float64, lda, ldb, ldc int) { // want `indexes operands but never calls a check\* argument validator`
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			c[i+j*ldc] = a[i] * b[j]
		}
	}
}

// BadGemvIndexBeforeCheck validates, but only after touching memory.
func BadGemvIndexBeforeCheck(m, n int, a, x, y []float64, lda int) {
	y[0] = x[0] // want `indexes an operand before its check\* validator runs`
	checkGemv(m, n, lda)
	for i := 1; i < m; i++ {
		y[i] = a[i] * x[0]
	}
}

// BadGemvNoIndex never validates; it has no indexing but still must call
// its validator before delegating.
func BadGemvNoIndex(m, n int, a, x, y []float64, lda int) { // want `has no check\* argument validator call`
	GoodGemv(m, n, a, x, y, lda)
}

// BadGenericGemv is a generic kernel over float type parameters; its []T
// operands are checked like []float64 ones.
func BadGenericGemv[T float32 | float64](m, n int, a, x, y []T, lda int) {
	y[0] = x[0] // want `indexes an operand before its check\* validator runs`
	checkGemv(m, n, lda)
}

// GoodGemm is the compliant shape: validate first, index after.
func GoodGemm(m, n, k int, a, b, c []float64, lda, ldb, ldc int) {
	checkGemm(m, n, k, lda, ldb, ldc)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			c[i+j*ldc] += a[i] * b[j]
		}
	}
}

// GoodGemv validates before its first slice access.
func GoodGemv(m, n int, a, x, y []float64, lda int) {
	checkGemv(m, n, lda)
	for i := 0; i < m; i++ {
		y[i] = a[i] * x[0]
	}
}

// unexportedGemmHelper is out of scope: only exported entry points carry
// the validation contract.
func unexportedGemmHelper(c []float64) {
	c[0] = 0
}

// SyrkLike is out of scope: not a GEMM/GEMV entry point.
func SyrkLike(c []float64) {
	c[0] = 1
}
