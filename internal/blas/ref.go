package blas

// The reference kernels: the textbook loops, with beta handling hoisted
// out. They define the semantics of the optimized kernels and are the
// oracle every GEMM and GEMV result is checked against. Column-major
// throughout. Each sum accumulates in the element type, as a vendor
// SGEMM/SGEMV does in float32, which matters for the paper's checksum
// tolerance.

// RefSgemm computes C = alpha*op(A)*op(B) + beta*C; see RefDgemm.
func RefSgemm(transA, transB Transpose, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	checkGemm(transA, transB, m, n, k, lda, ldb, ldc)
	refGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// RefDgemm computes C = alpha*op(A)*op(B) + beta*C where op(X) is X or Xᵀ.
// C is m-by-n, op(A) is m-by-k, op(B) is k-by-n. When beta == 0, C is
// written without being read (NaN-safe, matching vendor behaviour).
func RefDgemm(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	checkGemm(transA, transB, m, n, k, lda, ldb, ldc)
	refGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// RefSgemv computes y = alpha*op(A)*x + beta*y; see RefDgemv.
func RefSgemv(trans Transpose, m, n int, alpha float32, a []float32, lda int, x []float32, incX int, beta float32, y []float32, incY int) {
	checkGemv(trans, m, n, lda, incX, incY)
	refGemv(trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
}

// RefDgemv computes y = alpha*op(A)*x + beta*y for an m-by-n matrix A.
// When beta == 0, y is written without being read.
func RefDgemv(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	checkGemv(trans, m, n, lda, incX, incY)
	refGemv(trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
}

// refGemm is the reference GEMM on validated arguments.
func refGemm[T float](transA, transB Transpose, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	if m == 0 || n == 0 {
		return
	}
	// Scale or clear C first.
	for j := 0; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		if beta == 0 {
			for i := range cj {
				cj[i] = 0
			}
		} else if beta != 1 {
			for i := range cj {
				cj[i] *= beta
			}
		}
	}
	if alpha == 0 || k == 0 {
		return
	}
	at := isTrans(transA)
	bt := isTrans(transB)
	aAt := func(i, l int) T {
		if at {
			return a[l+i*lda]
		}
		return a[i+l*lda]
	}
	bAt := func(l, j int) T {
		if bt {
			return b[j+l*ldb]
		}
		return b[l+j*ldb]
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			var sum T
			for l := 0; l < k; l++ {
				sum += aAt(i, l) * bAt(l, j)
			}
			c[i+j*ldc] += alpha * sum
		}
	}
}

// refGemv is the reference GEMV on validated arguments; the GEMV driver
// falls back to it for strided vectors.
func refGemv[T float](trans Transpose, m, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int) {
	lenY := lenGemvY(trans, m, n)
	if lenY == 0 {
		return
	}
	ky := vecStart(lenY, incY)
	for i := 0; i < lenY; i++ {
		idx := ky + i*incY
		if beta == 0 {
			y[idx] = 0
		} else if beta != 1 {
			y[idx] *= beta
		}
	}
	lenX := lenGemvX(trans, m, n)
	if alpha == 0 || lenX == 0 {
		return
	}
	kx := vecStart(lenX, incX)
	if isTrans(trans) {
		// y_j += alpha * dot(A[:,j], x)
		for j := 0; j < n; j++ {
			var sum T
			col := a[j*lda : j*lda+m]
			for i := 0; i < m; i++ {
				sum += col[i] * x[kx+i*incX]
			}
			y[ky+j*incY] += alpha * sum
		}
		return
	}
	// y += alpha * A[:,j] * x_j, column by column.
	for j := 0; j < n; j++ {
		xv := alpha * x[kx+j*incX]
		if xv == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		for i := 0; i < m; i++ {
			y[ky+i*incY] += xv * col[i]
		}
	}
}
