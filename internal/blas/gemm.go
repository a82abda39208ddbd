package blas

import "repro/internal/parallel"

// Optimized GEMM in the GotoBLAS/BLIS style, one driver for both
// precisions (blocking from the precision descriptor):
//
//	for jc in N by nc:                 (parallelised across workers)
//	  for pc in K by kc:   pack B(pc,jc) into bPack (kc x nc, NR-panels)
//	    for ic in M by mc: pack A(ic,pc) into aPack (mc x kc, MR-panels)
//	      for jr in nc by nr, ir in mc by mr:  mr x nr micro-kernel
//
// Packing rearranges panels so the micro-kernel streams both operands
// contiguously, and absorbs transposition: packing op(A) and op(B) makes the
// inner loops transpose-free. Partial edge tiles are zero-padded in the
// packed buffers, so the micro-kernel is branch-free; stores clip to C.

// OptSgemm computes C = alpha*op(A)*op(B) + beta*C with cache blocking and
// multi-threading. Semantics match RefSgemm exactly.
func OptSgemm(transA, transB Transpose, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	checkGemm(transA, transB, m, n, k, lda, ldb, ldc)
	gemm(prec32, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// OptDgemm computes C = alpha*op(A)*op(B) + beta*C with cache blocking and
// multi-threading. Semantics match RefDgemm exactly.
func OptDgemm(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	checkGemm(transA, transB, m, n, k, lda, ldb, ldc)
	gemm(prec64, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// gemmChecked is gemm behind the exported entry points' argument check;
// the level-3 recursion runs its GEMM updates through it.
func gemmChecked[T float](pr *precision[T], transA, transB Transpose, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	checkGemm(transA, transB, m, n, k, lda, ldb, ldc)
	gemm(pr, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// gemm computes C = alpha*op(A)*op(B) + beta*C on validated arguments.
func gemm[T float](pr *precision[T], transA, transB Transpose, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	if !scaleC(m, n, k, alpha, beta, c, ldc) {
		return
	}
	p := getPool()
	flops := 2 * int64(m) * int64(n) * int64(k)
	if p.Workers() == 1 || flops < parallelGrainFlops {
		gemmSerial(pr, transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	// Split the larger output dimension across workers; each worker runs the
	// full serial blocked algorithm on its slice of C.
	if n >= m {
		p.For(n, func(_ int, r parallel.Range) {
			bOff, cOff := r.Lo*ldb, r.Lo*ldc
			if isTrans(transB) {
				bOff = r.Lo
			}
			gemmSerial(pr, transA, transB, m, r.Len(), k, alpha, a, lda, b[bOff:], ldb, c[cOff:], ldc)
		})
		return
	}
	p.For(m, func(_ int, r parallel.Range) {
		aOff, cOff := r.Lo, r.Lo
		if isTrans(transA) {
			aOff = r.Lo * lda
		}
		gemmSerial(pr, transA, transB, r.Len(), n, k, alpha, a[aOff:], lda, b, ldb, c[cOff:], ldc)
	})
}

// scaleC applies the beta pass C = beta*C to the m x n output (writing
// without reading when beta == 0) and reports whether the
// alpha*op(A)*op(B) update still has work to do.
func scaleC[T float](m, n, k int, alpha, beta T, c []T, ldc int) bool {
	if m == 0 || n == 0 {
		return false
	}
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
	return alpha != 0 && k != 0
}

// gemmSerial performs the packed, blocked update C += alpha*op(A)*op(B)
// on a single thread. C must already hold beta*C.
func gemmSerial[T float](pr *precision[T], transA, transB Transpose, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	mr, nr, kernel := pr.mr, pr.nr, pr.microKernel
	// One buffer, sized to the actual block extents (padded to whole
	// micro-panels) so small and batched GEMMs don't allocate full-size
	// panels, holds the packed A and B panels and the tile accumulator.
	mcMax, kcMax, ncMax := min(pr.mc, m), min(pr.kc, k), min(pr.nc, n)
	aLen := (mcMax + mr - 1) / mr * mr * kcMax
	bLen := (ncMax + nr - 1) / nr * nr * kcMax
	buf := make([]T, aLen+bLen+mr*nr)
	aPack, bPack, acc := buf[:aLen], buf[aLen:aLen+bLen], buf[aLen+bLen:]
	for jc := 0; jc < n; jc += pr.nc {
		nc := min(pr.nc, n-jc)
		for pc := 0; pc < k; pc += pr.kc {
			kc := min(pr.kc, k-pc)
			packB(transB, b, ldb, pc, jc, kc, nc, nr, bPack)
			for ic := 0; ic < m; ic += pr.mc {
				mc := min(pr.mc, m-ic)
				packA(transA, a, lda, ic, pc, mc, kc, mr, aPack)
				nPanels := (nc + nr - 1) / nr
				mPanels := (mc + mr - 1) / mr
				for jp := 0; jp < nPanels; jp++ {
					bp := bPack[jp*kc*nr : (jp+1)*kc*nr]
					njr := min(nr, nc-jp*nr)
					cPanel := c[(jc+jp*nr)*ldc+ic:]
					for ip := 0; ip < mPanels; ip++ {
						kernel(kc, aPack[ip*kc*mr:(ip+1)*kc*mr], bp, acc)
						mir := min(mr, mc-ip*mr)
						// Accumulate alpha*acc into C, clipping the tile.
						for jj := 0; jj < njr; jj++ {
							tile := acc[jj*mr : jj*mr+mir]
							ccol := cPanel[jj*ldc+ip*mr:]
							ccol = ccol[:len(tile)]
							for ii := range tile {
								ccol[ii] += alpha * tile[ii]
							}
						}
					}
				}
			}
		}
	}
}

// packA packs the mc x kc block of op(A) starting at logical (ic, pc) into
// mr-row panels: panel ip holds rows [ip*mr, ip*mr+mr) stored row-major
// within the panel ((l, ii) -> ap[ip*kc*mr + l*mr + ii]). Rows beyond mc pad
// with zeros.
//
//blobvet:hotpath
func packA[T float](transA Transpose, a []T, lda, ic, pc, mc, kc, mr int, ap []T) {
	mPanels := (mc + mr - 1) / mr
	for ipn := 0; ipn < mPanels; ipn++ {
		base := ipn * kc * mr
		ir := ipn * mr
		rows := min(mr, mc-ir)
		if isTrans(transA) {
			// op(A)(i, l) = A(l, i) = a[(pc+l) + (ic+i)*lda]
			for l := 0; l < kc; l++ {
				dst := ap[base+l*mr : base+l*mr+mr]
				for ii := 0; ii < rows; ii++ {
					dst[ii] = a[(pc+l)+(ic+ir+ii)*lda]
				}
				for ii := rows; ii < mr; ii++ {
					dst[ii] = 0
				}
			}
			continue
		}
		for l := 0; l < kc; l++ {
			src := a[(ic+ir)+(pc+l)*lda:]
			dst := ap[base+l*mr : base+l*mr+mr]
			for ii := 0; ii < rows; ii++ {
				dst[ii] = src[ii]
			}
			for ii := rows; ii < mr; ii++ {
				dst[ii] = 0
			}
		}
	}
}

// packB packs the kc x nc block of op(B) starting at logical (pc, jc) into
// nr-column panels: panel jp holds columns [jp*nr, jp*nr+nr) stored
// ((l, jj) -> bp[jp*kc*nr + l*nr + jj]). Columns beyond nc pad with zeros.
//
//blobvet:hotpath
func packB[T float](transB Transpose, b []T, ldb, pc, jc, kc, nc, nr int, bp []T) {
	nPanels := (nc + nr - 1) / nr
	for jpn := 0; jpn < nPanels; jpn++ {
		base := jpn * kc * nr
		jr := jpn * nr
		cols := min(nr, nc-jr)
		if isTrans(transB) {
			// op(B)(l, j) = B(j, l) = b[(jc+j) + (pc+l)*ldb]
			for l := 0; l < kc; l++ {
				dst := bp[base+l*nr : base+l*nr+nr]
				src := b[(jc+jr)+(pc+l)*ldb:]
				for jj := 0; jj < cols; jj++ {
					dst[jj] = src[jj]
				}
				for jj := cols; jj < nr; jj++ {
					dst[jj] = 0
				}
			}
			continue
		}
		for l := 0; l < kc; l++ {
			dst := bp[base+l*nr : base+l*nr+nr]
			for jj := 0; jj < cols; jj++ {
				dst[jj] = b[(pc+l)+(jc+jr+jj)*ldb]
			}
			for jj := cols; jj < nr; jj++ {
				dst[jj] = 0
			}
		}
	}
}
