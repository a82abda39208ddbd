// Package blas implements the two BLAS kernels the paper benchmarks, GEMM
// and GEMV, in Go, for float32 and float64. Each precision has three
// descriptors (precision.go), and a CPUID probe picks one at start-up: on
// amd64 CPUs with AVX512F the GEMM micro-kernels are AVX-512 assembly, on
// those with only AVX2 and FMA they are AVX2 assembly (kernel_amd64.s),
// and the GEMV column kernel is AVX2 assembly on both; everywhere else
// every kernel is pure Go.
//
// Two implementations of every kernel are provided:
//
//   - Ref* kernels: straightforward triple-loop references. They define the
//     semantics and serve as the comparison oracle in tests.
//   - Opt* kernels: cache-blocked, register-tiled and (for large problems)
//     multi-threaded implementations in the style of BLIS/GotoBLAS. These are
//     the kernels actually executed by the benchmark's simulated devices so
//     that checksum validation exercises real arithmetic.
//
// All matrices are column-major (§III-A of the paper): element (i,j) of an
// m-by-n matrix A with leading dimension lda lives at a[i+j*lda]. GEMM and
// GEMV additionally honour the paper's Beta=0 contract: when beta == 0 the
// output operand is written, never read, matching the optimisation the paper
// observed in all five vendor libraries (Table I).
package blas

import "fmt"

// Transpose selects op(X) for kernels taking transposition arguments.
type Transpose byte

// Transpose values. ConjTrans is accepted and treated as Trans for the real
// types implemented here.
const (
	NoTrans   Transpose = 'N'
	Trans     Transpose = 'T'
	ConjTrans Transpose = 'C'
)

func (t Transpose) valid() bool { return t == NoTrans || t == Trans || t == ConjTrans }

// isTrans reports whether t denotes any transposition.
func isTrans(t Transpose) bool { return t == Trans || t == ConjTrans }

func checkGemm(transA, transB Transpose, m, n, k, lda, ldb, ldc int) {
	if !transA.valid() || !transB.valid() {
		panic(fmt.Sprintf("blas: invalid transpose (%c,%c)", transA, transB))
	}
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("blas: negative gemm dimension m=%d n=%d k=%d", m, n, k))
	}
	rowsA, rowsB := m, k
	if isTrans(transA) {
		rowsA = k
	}
	if isTrans(transB) {
		rowsB = n
	}
	if lda < max(1, rowsA) {
		panic(fmt.Sprintf("blas: lda=%d too small for %d rows", lda, rowsA))
	}
	if ldb < max(1, rowsB) {
		panic(fmt.Sprintf("blas: ldb=%d too small for %d rows", ldb, rowsB))
	}
	if ldc < max(1, m) {
		panic(fmt.Sprintf("blas: ldc=%d too small for %d rows", ldc, m))
	}
}

func checkGemv(trans Transpose, m, n, lda, incX, incY int) {
	if !trans.valid() {
		panic(fmt.Sprintf("blas: invalid transpose %c", trans))
	}
	if m < 0 || n < 0 {
		panic(fmt.Sprintf("blas: negative gemv dimension m=%d n=%d", m, n))
	}
	if lda < max(1, m) {
		panic(fmt.Sprintf("blas: lda=%d too small for %d rows", lda, m))
	}
	if incX == 0 || incY == 0 {
		panic("blas: zero vector increment")
	}
}

// lenGemvX returns the logical length of x for a gemv with the given
// transpose setting.
func lenGemvX(trans Transpose, m, n int) int {
	if isTrans(trans) {
		return m
	}
	return n
}

// lenGemvY returns the logical length of y for a gemv with the given
// transpose setting.
func lenGemvY(trans Transpose, m, n int) int {
	if isTrans(trans) {
		return n
	}
	return m
}

// vecStart returns the index of logical element 0 for a strided vector of n
// logical elements: BLAS convention places element 0 at the end of the
// buffer when inc < 0.
func vecStart(n, inc int) int {
	if inc < 0 {
		return (n - 1) * -inc
	}
	return 0
}
