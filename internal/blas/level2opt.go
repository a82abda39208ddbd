package blas

import "repro/internal/parallel"

// Optimized Level-2 kernels beyond GEMV. GER and SYMV parallelise cleanly
// (columns of A, rows of y); TRMV and TRSV stay serial in their Opt form —
// the forward/backward substitution recurrence makes row-level parallelism
// a loss at BLAS-2 arithmetic intensities — so OptDtrsv/OptDtrmv simply
// dispatch to the reference kernels and exist for API completeness.

// OptSger computes the rank-1 update A += alpha*x*yᵀ. Semantics match
// RefSger.
func OptSger(m, n int, alpha float32, x []float32, incX int, y []float32, incY int, a []float32, lda int) {
	checkGer(m, n, lda, incX, incY)
	ger(prec32, m, n, alpha, x, incX, y, incY, a, lda)
}

// OptDger computes the rank-1 update A += alpha*x*yᵀ, parallelised over
// column blocks of A. Semantics match RefDger.
func OptDger(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	checkGer(m, n, lda, incX, incY)
	ger(prec64, m, n, alpha, x, incX, y, incY, a, lda)
}

// ger computes A += alpha*x*yᵀ on validated arguments.
func ger[T float](pr *precision[T], m, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int) {
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	p := getPool()
	if p.Workers() == 1 || int64(m)*int64(n) < parallelGrainFlops || incX != 1 {
		pr.refGer(m, n, alpha, x, incX, y, incY, a, lda)
		return
	}
	ky := vecStart(n, incY)
	p.For(n, func(_ int, r parallel.Range) {
		for j := r.Lo; j < r.Hi; j++ {
			yv := alpha * y[ky+j*incY]
			if yv == 0 {
				continue
			}
			col := a[j*lda : j*lda+m]
			for i := 0; i < m; i++ {
				col[i] += x[i] * yv
			}
		}
	})
}

// OptSsymv computes y = alpha*A*x + beta*y for symmetric float32 A.
// Semantics match RefSsymv.
func OptSsymv(uplo Uplo, n int, alpha float32, a []float32, lda int, x []float32, incX int, beta float32, y []float32, incY int) {
	checkSymv(uplo, n, lda, incX, incY)
	symv(prec32, uplo, n, alpha, a, lda, x, incX, beta, y, incY)
}

// OptDsymv computes y = alpha*A*x + beta*y for symmetric A (uplo triangle
// stored), parallelised over output rows with each worker reading the
// stored triangle only. Semantics match RefDsymv.
func OptDsymv(uplo Uplo, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	checkSymv(uplo, n, lda, incX, incY)
	symv(prec64, uplo, n, alpha, a, lda, x, incX, beta, y, incY)
}

// symv computes y = alpha*A*x + beta*y on validated arguments.
func symv[T float](pr *precision[T], uplo Uplo, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int) {
	if n == 0 {
		return
	}
	p := getPool()
	if p.Workers() == 1 || 2*int64(n)*int64(n) < parallelGrainFlops || incX != 1 || incY != 1 {
		pr.refSymv(uplo, n, alpha, a, lda, x, incX, beta, y, incY)
		return
	}
	for i := 0; i < n; i++ {
		if beta == 0 {
			y[i] = 0
		} else if beta != 1 {
			y[i] *= beta
		}
	}
	if alpha == 0 {
		return
	}
	at := func(i, j int) T {
		if (uplo == Upper && i > j) || (uplo == Lower && i < j) {
			return a[j+i*lda]
		}
		return a[i+j*lda]
	}
	p.For(n, func(_ int, r parallel.Range) {
		for i := r.Lo; i < r.Hi; i++ {
			var sum T
			for j := 0; j < n; j++ {
				sum += at(i, j) * x[j]
			}
			y[i] += alpha * sum
		}
	})
}

// OptDtrmv computes x = op(A)*x. The triangular recurrence defeats
// data-parallel decomposition at Level-2 intensity, so this dispatches to
// the reference kernel; it exists so callers can uniformly use Opt*.
func OptDtrmv(uplo Uplo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	RefDtrmv(uplo, trans, diag, n, a, lda, x, incX)
}

// OptDtrsv solves op(A)*x = b in place; see OptDtrmv for why it is serial.
func OptDtrsv(uplo Uplo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	RefDtrsv(uplo, trans, diag, n, a, lda, x, incX)
}
