package blas

import "repro/internal/parallel"

// Optimized GEMV kernels. GEMV is memory-bandwidth bound: the whole of A is
// streamed once per call, so the only wins available are (a) keeping the
// column-major access pattern unit-stride, (b) 4-way unrolling the column
// loop so each pass over y applies four columns of A, and (c) splitting the
// row space across workers for large matrices. The NoTrans kernel
// parallelises over rows (each worker owns a contiguous slice of y); the
// Trans kernel parallelises over columns (each worker owns a slice of y of
// length n). Fast paths require unit increments; strided vectors fall back
// to the reference kernel.

// OptSgemv computes y = alpha*op(A)*x + beta*y. Semantics match RefSgemv.
func OptSgemv(trans Transpose, m, n int, alpha float32, a []float32, lda int, x []float32, incX int, beta float32, y []float32, incY int) {
	checkGemv(trans, m, n, lda, incX, incY)
	gemv(prec32, trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
}

// OptDgemv computes y = alpha*op(A)*x + beta*y. Semantics match RefDgemv.
func OptDgemv(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	checkGemv(trans, m, n, lda, incX, incY)
	gemv(prec64, trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
}

// gemv computes y = alpha*op(A)*x + beta*y on validated arguments.
func gemv[T float](pr *precision[T], trans Transpose, m, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int) {
	if incX != 1 || incY != 1 {
		refGemv(trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
		return
	}
	lenY := lenGemvY(trans, m, n)
	if lenY == 0 {
		return
	}
	yv := y[:lenY]
	if beta == 0 {
		for i := range yv {
			yv[i] = 0
		}
	} else if beta != 1 {
		for i := range yv {
			yv[i] *= beta
		}
	}
	if alpha == 0 || lenGemvX(trans, m, n) == 0 {
		return
	}
	p := getPool()
	flops := 2 * int64(m) * int64(n)
	if isTrans(trans) {
		if p.Workers() == 1 || flops < parallelGrainFlops {
			gemvT(m, n, alpha, a, lda, x, yv)
			return
		}
		p.For(n, func(_ int, r parallel.Range) {
			gemvT(m, r.Len(), alpha, a[r.Lo*lda:], lda, x, yv[r.Lo:])
		})
		return
	}
	if p.Workers() == 1 || flops < parallelGrainFlops {
		gemvN(pr, m, n, alpha, a, lda, x, yv)
		return
	}
	p.For(m, func(_ int, r parallel.Range) {
		gemvN(pr, r.Len(), n, alpha, a[r.Lo:], lda, x, yv[r.Lo:r.Hi])
	})
}

// gemvN computes y += alpha*A*x for an m-by-n block with unit strides,
// four columns at a time through the descriptor's column kernel; the
// portable kernel finishes the rows past the column kernel's vector
// prefix.
func gemvN[T float](pr *precision[T], m, n int, alpha T, a []T, lda int, x, y []T) {
	y = y[:m]
	j := 0
	for ; j+4 <= n; j += 4 {
		x0 := alpha * x[j]
		x1 := alpha * x[j+1]
		x2 := alpha * x[j+2]
		x3 := alpha * x[j+3]
		cols := a[j*lda:]
		if done := pr.gemvCols4(m, x0, x1, x2, x3, cols, lda, y); done < m {
			gemvCols4(m-done, x0, x1, x2, x3, cols[done:], lda, y[done:])
		}
	}
	for ; j < n; j++ {
		xv := alpha * x[j]
		if xv == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		for i := 0; i < m; i++ {
			y[i] += xv * col[i]
		}
	}
}

// gemvT computes y_j += alpha*dot(A[:,j], x) for n columns with unit
// strides, with 4-way unrolled dot products.
func gemvT[T float](m, n int, alpha T, a []T, lda int, x, y []T) {
	x = x[:m]
	for j := 0; j < n; j++ {
		col := a[j*lda : j*lda+m]
		var s0, s1, s2, s3 T
		i := 0
		for ; i+4 <= m; i += 4 {
			s0 += col[i] * x[i]
			s1 += col[i+1] * x[i+1]
			s2 += col[i+2] * x[i+2]
			s3 += col[i+3] * x[i+3]
		}
		sum := (s0 + s1) + (s2 + s3)
		for ; i < m; i++ {
			sum += col[i] * x[i]
		}
		y[j] += alpha * sum
	}
}
