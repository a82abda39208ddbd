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
// packed buffers, so the micro-kernel is branch-free. The micro-kernel
// owns C, BLIS-style: it computes C = alpha*A*B + beta*C on one tile and
// writes full tiles straight into C; only the tiles clipped by the edges
// of C go through a tile buffer.

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

// gemm computes C = alpha*op(A)*op(B) + beta*C on validated arguments.
func gemm[T float](pr *precision[T], transA, transB Transpose, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	if !scaleC(m, n, k, alpha, beta, c, ldc) {
		return
	}
	p := getPool()
	flops := 2 * int64(m) * int64(n) * int64(k)
	if p.Workers() == 1 || flops < parallelGrainFlops {
		gemmSerial(pr, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
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
			gemmSerial(pr, transA, transB, m, r.Len(), k, alpha, a, lda, b[bOff:], ldb, beta, c[cOff:], ldc)
		})
		return
	}
	p.For(m, func(_ int, r parallel.Range) {
		aOff, cOff := r.Lo, r.Lo
		if isTrans(transA) {
			aOff = r.Lo * lda
		}
		gemmSerial(pr, transA, transB, r.Len(), n, k, alpha, a[aOff:], lda, b, ldb, beta, c[cOff:], ldc)
	})
}

// scaleC finishes the calls that have no alpha*op(A)*op(B) term, setting
// the m x n output to beta*C (writing without reading when beta == 0)
// when alpha == 0 or k == 0, and reports whether the product term is
// left for gemmSerial, which applies beta itself.
func scaleC[T float](m, n, k int, alpha, beta T, c []T, ldc int) bool {
	if m == 0 || n == 0 {
		return false
	}
	if alpha != 0 && k != 0 {
		return true
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
	return false
}

// gemmSerial computes C = alpha*op(A)*op(B) + beta*C on a single thread,
// for m, n, k > 0. The micro-kernel writes each full register tile
// straight into C, applying beta on the first kc block and accumulating
// on the later ones; only the tiles clipped by the edges of C go through
// the tile buffer.
//
//blobvet:hotpath
func gemmSerial[T float](pr *precision[T], transA, transB Transpose, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	mr, nr, kernel := pr.mr, pr.nr, pr.microKernel
	buf := pr.packs.get(pr)
	aLen, bLen := pr.mc*pr.kc, pr.nc*pr.kc
	aPack, bPack, acc := buf[:aLen], buf[aLen:aLen+bLen], buf[aLen+bLen:]
	for jc := 0; jc < n; jc += pr.nc {
		nc := min(pr.nc, n-jc)
		for pc := 0; pc < k; pc += pr.kc {
			kc := min(pr.kc, k-pc)
			betaBlock := beta
			if pc > 0 {
				betaBlock = 1
			}
			packB(pr, transB, b, ldb, pc, jc, kc, nc, bPack)
			for ic := 0; ic < m; ic += pr.mc {
				mc := min(pr.mc, m-ic)
				packA(pr, transA, a, lda, ic, pc, mc, kc, aPack)
				nPanels := (nc + nr - 1) / nr
				mPanels := (mc + mr - 1) / mr
				for jp := 0; jp < nPanels; jp++ {
					bp := bPack[jp*kc*nr : (jp+1)*kc*nr]
					cols := min(nr, nc-jp*nr)
					cPanel := c[(jc+jp*nr)*ldc+ic:]
					for ip := 0; ip < mPanels; ip++ {
						ap := aPack[ip*kc*mr : (ip+1)*kc*mr]
						rows := min(mr, mc-ip*mr)
						if rows == mr && cols == nr {
							kernel(kc, alpha, ap, bp, betaBlock, cPanel[ip*mr:], ldc)
							continue
						}
						kernel(kc, 1, ap, bp, 0, acc, mr)
						storeTile(alpha, acc, mr, rows, cols, betaBlock, cPanel[ip*mr:], ldc)
					}
				}
			}
		}
	}
	pr.packs.put(buf)
}

// packA packs the mc x kc block of op(A) starting at logical (ic, pc) into
// mr-row panels: panel ip holds rows [ip*mr, ip*mr+mr) stored row-major
// within the panel ((l, ii) -> ap[ip*kc*mr + l*mr + ii]). Rows beyond mc pad
// with zeros.
//
//blobvet:hotpath
func packA[T float](pr *precision[T], transA Transpose, a []T, lda, ic, pc, mc, kc int, ap []T) {
	if isTrans(transA) {
		// op(A)(i, l) = A(l, i) = a[(pc+l) + (ic+i)*lda]
		pr.packCols(a[pc+ic*lda:], lda, mc, kc, pr.mr, ap)
		return
	}
	pr.packRuns(a[ic+pc*lda:], lda, mc, kc, pr.mr, ap)
}

// packB packs the kc x nc block of op(B) starting at logical (pc, jc) into
// nr-column panels: panel jp holds columns [jp*nr, jp*nr+nr) stored
// ((l, jj) -> bp[jp*kc*nr + l*nr + jj]). Columns beyond nc pad with zeros.
//
//blobvet:hotpath
func packB[T float](pr *precision[T], transB Transpose, b []T, ldb, pc, jc, kc, nc int, bp []T) {
	if isTrans(transB) {
		// op(B)(l, j) = B(j, l) = b[(jc+j) + (pc+l)*ldb]
		pr.packRuns(b[jc+pc*ldb:], ldb, nc, kc, pr.nr, bp)
		return
	}
	pr.packCols(b[pc+jc*ldb:], ldb, nc, kc, pr.nr, bp)
}

// packRuns and packCols are the generic pack leaves. Each packs the
// cnt x kc operand block at src into w-wide panels: element (i, l) of the
// block goes to dst[(i/w)*kc*w + l*w + i%w], and the panel slots past cnt
// are zeroed. packRuns reads element (i, l) at src[i + l*ld], so row l of
// a panel is one contiguous run of up to w source elements. packCols
// reads it at src[l + i*ld], so a panel gathers up to w contiguous
// kc-long source columns, four at a time: each step of l writes four
// adjacent slots of the packed row from four hoisted column slices. An
// edge panel is cleared whole first.

//blobvet:hotpath
func packRuns[T float](src []T, ld, cnt, kc, w int, dst []T) {
	for i0 := 0; i0 < cnt; i0 += w {
		panel := dst[i0*kc : i0*kc+kc*w]
		width := min(w, cnt-i0)
		for l := 0; l < kc; l++ {
			row := panel[l*w : l*w+w]
			copy(row, src[i0+l*ld:i0+l*ld+width])
			if width < w {
				clear(row[width:])
			}
		}
	}
}

//blobvet:hotpath
func packCols[T float](src []T, ld, cnt, kc, w int, dst []T) {
	for i0 := 0; i0 < cnt; i0 += w {
		panel := dst[i0*kc : i0*kc+kc*w]
		width := min(w, cnt-i0)
		if width < w {
			clear(panel)
		}
		i := 0
		for ; i+4 <= width; i += 4 {
			c0 := src[(i0+i)*ld:][:kc]
			c1 := src[(i0+i+1)*ld:][:kc]
			c2 := src[(i0+i+2)*ld:][:kc]
			c3 := src[(i0+i+3)*ld:][:kc]
			for l := range c0 {
				r := panel[l*w+i:][:4]
				r[0], r[1], r[2], r[3] = c0[l], c1[l], c2[l], c3[l]
			}
		}
		for ; i < width; i++ {
			for l, v := range src[(i0+i)*ld:][:kc] {
				panel[l*w+i] = v
			}
		}
	}
}
