package blas

// Optimized Level-3 kernels beyond GEMM. Each uses the classic recursive
// blocking that reduces TRSM/TRMM/SYRK/SYMM to the precision's reference
// kernels on diagonal blocks plus large GEMM updates, so the bulk of the
// FLOPs run through the packed, multi-threaded GEMM path. The exported
// kernels are validated by the reference kernel at the first leaf of the
// recursion, and the GEMM updates by gemmChecked.

// level3BlockSize is the diagonal-block size below which recursion stops
// and the reference kernel runs directly.
const level3BlockSize = 64

// OptStrsm solves op(A)*X = alpha*B (side == Left) or X*op(A) = alpha*B
// (side == Right), overwriting B with X. Semantics match RefStrsm.
func OptStrsm(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float32, a []float32, lda int, b []float32, ldb int) {
	trsm(prec32, side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
}

// OptDtrsm solves op(A)*X = alpha*B (side == Left) or X*op(A) = alpha*B
// (side == Right), overwriting B with X. Semantics match RefDtrsm.
func OptDtrsm(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	trsm(prec64, side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
}

// OptStrmm computes B = alpha*op(A)*B (Left) or B = alpha*B*op(A) (Right).
// Semantics match RefStrmm.
func OptStrmm(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float32, a []float32, lda int, b []float32, ldb int) {
	trmm(prec32, side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
}

// OptDtrmm computes B = alpha*op(A)*B (Left) or B = alpha*B*op(A) (Right).
// Semantics match RefDtrmm.
func OptDtrmm(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	trmm(prec64, side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
}

// OptSsyrk computes the uplo triangle of C = alpha*A*Aᵀ + beta*C (NoTrans)
// or C = alpha*Aᵀ*A + beta*C (Trans). Semantics match RefSsyrk.
func OptSsyrk(uplo Uplo, trans Transpose, n, k int, alpha float32, a []float32, lda int, beta float32, c []float32, ldc int) {
	syrk(prec32, uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
}

// OptDsyrk computes the uplo triangle of C = alpha*A*Aᵀ + beta*C (NoTrans)
// or C = alpha*Aᵀ*A + beta*C (Trans). Semantics match RefDsyrk.
func OptDsyrk(uplo Uplo, trans Transpose, n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	syrk(prec64, uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
}

// OptSsymm computes C = alpha*A*B + beta*C (Left) or C = alpha*B*A + beta*C
// (Right) for symmetric A stored in the uplo triangle. Semantics match
// RefSsymm.
func OptSsymm(side Side, uplo Uplo, m, n int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	symm(prec32, side, uplo, m, n, alpha, a, lda, b, ldb, beta, c, ldc)
}

// OptDsymm computes C = alpha*A*B + beta*C (Left) or C = alpha*B*A + beta*C
// (Right) for symmetric A stored in the uplo triangle. Semantics match
// RefDsymm.
func OptDsymm(side Side, uplo Uplo, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	symm(prec64, side, uplo, m, n, alpha, a, lda, b, ldb, beta, c, ldc)
}

// trsm solves op(A)*X = alpha*B (side == Left) or X*op(A) = alpha*B
// (side == Right), overwriting B with X.
func trsm[T float](pr *precision[T], side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha T, a []T, lda int, b []T, ldb int) {
	na := m
	if side == Right {
		na = n
	}
	if na <= level3BlockSize || m == 0 || n == 0 {
		pr.refTrsm(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
		return
	}
	// Split A (na x na) into [A11 A12; A21 A22] with A11 n1 x n1.
	n1 := na / 2
	n2 := na - n1
	a11 := a
	a21 := a[n1:]        // lower-left block
	a12 := a[n1*lda:]    // upper-right block
	a22 := a[n1+n1*lda:] // trailing diagonal block

	if side == Left {
		b1 := b
		b2 := b[n1:]
		// Effective order of elimination depends on which triangle op(A)
		// presents: Lower+NoTrans and Upper+Trans solve top-down.
		topDown := (uplo == Lower) != isTrans(trans)
		if topDown {
			// X1 = op(A11)^-1 * alpha*B1
			trsm(pr, side, uplo, trans, diag, n1, n, alpha, a11, lda, b1, ldb)
			// B2 = alpha*B2 - op(A_off)*X1
			if uplo == Lower {
				gemmChecked(pr, trans, NoTrans, n2, n, n1, -1, a21, lda, b1, ldb, alpha, b2, ldb)
			} else {
				gemmChecked(pr, trans, NoTrans, n2, n, n1, -1, a12, lda, b1, ldb, alpha, b2, ldb)
			}
			trsm(pr, side, uplo, trans, diag, n2, n, 1, a22, lda, b2, ldb)
			return
		}
		// Bottom-up: X2 first.
		trsm(pr, side, uplo, trans, diag, n2, n, alpha, a22, lda, b2, ldb)
		if uplo == Upper {
			gemmChecked(pr, trans, NoTrans, n1, n, n2, -1, a12, lda, b2, ldb, alpha, b1, ldb)
		} else {
			gemmChecked(pr, trans, NoTrans, n1, n, n2, -1, a21, lda, b2, ldb, alpha, b1, ldb)
		}
		trsm(pr, side, uplo, trans, diag, n1, n, 1, a11, lda, b1, ldb)
		return
	}

	// side == Right: X * op(A) = alpha*B, splitting B by columns.
	b1 := b
	b2 := b[n1*ldb:]
	// X1 solved first when op(A) presents an upper triangle column-wise:
	// Upper+NoTrans and Lower+Trans eliminate left-to-right.
	leftFirst := (uplo == Upper) != isTrans(trans)
	if leftFirst {
		trsm(pr, side, uplo, trans, diag, m, n1, alpha, a11, lda, b1, ldb)
		// B2 = alpha*B2 - X1 * op(A_off)
		if uplo == Upper {
			gemmChecked(pr, NoTrans, trans, m, n2, n1, -1, b1, ldb, a12, lda, alpha, b2, ldb)
		} else {
			gemmChecked(pr, NoTrans, trans, m, n2, n1, -1, b1, ldb, a21, lda, alpha, b2, ldb)
		}
		trsm(pr, side, uplo, trans, diag, m, n2, 1, a22, lda, b2, ldb)
		return
	}
	trsm(pr, side, uplo, trans, diag, m, n2, alpha, a22, lda, b2, ldb)
	if uplo == Lower {
		gemmChecked(pr, NoTrans, trans, m, n1, n2, -1, b2, ldb, a21, lda, alpha, b1, ldb)
	} else {
		gemmChecked(pr, NoTrans, trans, m, n1, n2, -1, b2, ldb, a12, lda, alpha, b1, ldb)
	}
	trsm(pr, side, uplo, trans, diag, m, n1, 1, a11, lda, b1, ldb)
}

// trmm computes B = alpha*op(A)*B (Left) or B = alpha*B*op(A) (Right).
func trmm[T float](pr *precision[T], side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha T, a []T, lda int, b []T, ldb int) {
	na := m
	if side == Right {
		na = n
	}
	if na <= level3BlockSize || m == 0 || n == 0 {
		pr.refTrmm(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
		return
	}
	n1 := na / 2
	n2 := na - n1
	a11 := a
	a21 := a[n1:]
	a12 := a[n1*lda:]
	a22 := a[n1+n1*lda:]

	if side == Left {
		b1 := b
		b2 := b[n1:]
		// When op(A) is lower triangular, row block 2 depends on B1, so
		// compute B2 first (its inputs are still unmodified), then B1.
		opLower := (uplo == Lower) != isTrans(trans)
		if opLower {
			trmm(pr, side, uplo, trans, diag, n2, n, alpha, a22, lda, b2, ldb)
			if uplo == Lower {
				gemmChecked(pr, trans, NoTrans, n2, n, n1, alpha, a21, lda, b1, ldb, 1, b2, ldb)
			} else {
				gemmChecked(pr, trans, NoTrans, n2, n, n1, alpha, a12, lda, b1, ldb, 1, b2, ldb)
			}
			trmm(pr, side, uplo, trans, diag, n1, n, alpha, a11, lda, b1, ldb)
			return
		}
		// op(A) upper: B1 depends on old B2; compute B1 first.
		trmm(pr, side, uplo, trans, diag, n1, n, alpha, a11, lda, b1, ldb)
		if uplo == Upper {
			gemmChecked(pr, trans, NoTrans, n1, n, n2, alpha, a12, lda, b2, ldb, 1, b1, ldb)
		} else {
			gemmChecked(pr, trans, NoTrans, n1, n, n2, alpha, a21, lda, b2, ldb, 1, b1, ldb)
		}
		trmm(pr, side, uplo, trans, diag, n2, n, alpha, a22, lda, b2, ldb)
		return
	}

	b1 := b
	b2 := b[n1*ldb:]
	// Right side: B = B*op(A). When op(A) is upper, column block 2 depends
	// on old B1 — compute B2 first.
	opUpper := (uplo == Upper) != isTrans(trans)
	if opUpper {
		trmm(pr, side, uplo, trans, diag, m, n2, alpha, a22, lda, b2, ldb)
		if uplo == Upper {
			gemmChecked(pr, NoTrans, trans, m, n2, n1, alpha, b1, ldb, a12, lda, 1, b2, ldb)
		} else {
			gemmChecked(pr, NoTrans, trans, m, n2, n1, alpha, b1, ldb, a21, lda, 1, b2, ldb)
		}
		trmm(pr, side, uplo, trans, diag, m, n1, alpha, a11, lda, b1, ldb)
		return
	}
	trmm(pr, side, uplo, trans, diag, m, n1, alpha, a11, lda, b1, ldb)
	if uplo == Lower {
		gemmChecked(pr, NoTrans, trans, m, n1, n2, alpha, b2, ldb, a21, lda, 1, b1, ldb)
	} else {
		gemmChecked(pr, NoTrans, trans, m, n1, n2, alpha, b2, ldb, a12, lda, 1, b1, ldb)
	}
	trmm(pr, side, uplo, trans, diag, m, n2, alpha, a22, lda, b2, ldb)
}

// syrk computes the uplo triangle of C = alpha*A*Aᵀ + beta*C (NoTrans)
// or C = alpha*Aᵀ*A + beta*C (Trans).
func syrk[T float](pr *precision[T], uplo Uplo, trans Transpose, n, k int, alpha T, a []T, lda int, beta T, c []T, ldc int) {
	if n <= level3BlockSize || n == 0 {
		pr.refSyrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
		return
	}
	n1 := n / 2
	n2 := n - n1
	// Row blocks of op(A): op(A) is n x k.
	var a1, a2 []T
	var ta, tb Transpose
	if isTrans(trans) {
		// A is k x n: op(A) row block i is column block i of A.
		a1, a2 = a, a[n1*lda:]
		ta, tb = Trans, NoTrans
	} else {
		a1, a2 = a, a[n1:]
		ta, tb = NoTrans, Trans
	}
	c11 := c
	c21 := c[n1:]
	c12 := c[n1*ldc:]
	c22 := c[n1+n1*ldc:]
	syrk(pr, uplo, trans, n1, k, alpha, a1, lda, beta, c11, ldc)
	syrk(pr, uplo, trans, n2, k, alpha, a2, lda, beta, c22, ldc)
	if uplo == Lower {
		// C21 = alpha*op(A)2*op(A)1ᵀ + beta*C21.
		gemmChecked(pr, ta, tb, n2, n1, k, alpha, a2, lda, a1, lda, beta, c21, ldc)
	} else {
		// C12 = alpha*op(A)1*op(A)2ᵀ + beta*C12.
		gemmChecked(pr, ta, tb, n1, n2, k, alpha, a1, lda, a2, lda, beta, c12, ldc)
	}
}

// symm computes C = alpha*A*B + beta*C (Left) or C = alpha*B*A + beta*C
// (Right) for symmetric A stored in the uplo triangle.
func symm[T float](pr *precision[T], side Side, uplo Uplo, m, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	na := m
	if side == Right {
		na = n
	}
	if na <= level3BlockSize || m == 0 || n == 0 {
		pr.refSymm(side, uplo, m, n, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	n1 := na / 2
	n2 := na - n1
	a11 := a
	a21 := a[n1:]
	a12 := a[n1*lda:]
	a22 := a[n1+n1*lda:]
	// The off-diagonal block of the full symmetric A: stored explicitly in
	// one triangle, implied transposed in the other.
	if side == Left {
		b1 := b
		b2 := b[n1:]
		c1 := c
		c2 := c[n1:]
		// C1 = alpha*(A11*B1 + A12full*B2) + beta*C1
		symm(pr, side, uplo, n1, n, alpha, a11, lda, b1, ldb, beta, c1, ldc)
		if uplo == Upper {
			gemmChecked(pr, NoTrans, NoTrans, n1, n, n2, alpha, a12, lda, b2, ldb, 1, c1, ldc)
		} else {
			gemmChecked(pr, Trans, NoTrans, n1, n, n2, alpha, a21, lda, b2, ldb, 1, c1, ldc)
		}
		// C2 = alpha*(A21full*B1 + A22*B2) + beta*C2
		symm(pr, side, uplo, n2, n, alpha, a22, lda, b2, ldb, beta, c2, ldc)
		if uplo == Upper {
			gemmChecked(pr, Trans, NoTrans, n2, n, n1, alpha, a12, lda, b1, ldb, 1, c2, ldc)
		} else {
			gemmChecked(pr, NoTrans, NoTrans, n2, n, n1, alpha, a21, lda, b1, ldb, 1, c2, ldc)
		}
		return
	}
	// side == Right: C = alpha*B*A + beta*C, splitting B and C by columns.
	b1 := b
	b2 := b[n1*ldb:]
	c1 := c
	c2 := c[n1*ldc:]
	// C1 = alpha*(B1*A11 + B2*A21full) + beta*C1
	symm(pr, side, uplo, m, n1, alpha, a11, lda, b1, ldb, beta, c1, ldc)
	if uplo == Upper {
		gemmChecked(pr, NoTrans, Trans, m, n1, n2, alpha, b2, ldb, a12, lda, 1, c1, ldc)
	} else {
		gemmChecked(pr, NoTrans, NoTrans, m, n1, n2, alpha, b2, ldb, a21, lda, 1, c1, ldc)
	}
	// C2 = alpha*(B1*A12full + B2*A22) + beta*C2
	symm(pr, side, uplo, m, n2, alpha, a22, lda, b2, ldb, beta, c2, ldc)
	if uplo == Upper {
		gemmChecked(pr, NoTrans, NoTrans, m, n2, n1, alpha, b1, ldb, a12, lda, 1, c2, ldc)
	} else {
		gemmChecked(pr, NoTrans, Trans, m, n2, n1, alpha, b1, ldb, a21, lda, 1, c2, ldc)
	}
}
