package blas

import "sync"

// Every optimized kernel is one generic driver over float. A precision
// descriptor holds exactly what differs between float32 and float64:
//
//   - the GEMM blocking: mc x kc panels of A, kc x nc panels of B, and the
//     mr x nr register tile;
//   - the register micro-kernel that computes one mr x nr tile of C, the
//     two pack leaves that lay operand blocks out in its panels, and the
//     column kernel of the GEMV NoTrans driver;
//   - the free list of GEMM packing buffers, sized from the blocking.
//
// Each precision has three descriptors. The portable one runs pure-Go
// leaves anywhere. The SIMD ones (kernel_amd64.go) swap in assembly
// leaves with their own register tiles: AVX2/FMA, and AVX-512 with twice
// the vector width and twice the registers. Which one the exported
// kernels use is decided once at start-up, by the CPU probe alone.

// float is the element type set of the optimized kernels.
type float interface{ float32 | float64 }

// precision describes one element type to the generic drivers.
type precision[T float] struct {
	mc, kc, nc int
	mr, nr     int
	// microKernel computes C = alpha*A*B + beta*C on one mr x nr tile of
	// C (column-major, leading dimension ldc >= mr), where A is one
	// mr-wide packed panel and B one nr-wide packed panel, each kc deep.
	// With beta == 0 it never reads C, so C may hold anything, NaN
	// included.
	microKernel func(kc int, alpha T, ap, bp []T, beta T, c []T, ldc int)
	// packRuns and packCols pack a cnt x kc operand block into w-wide
	// panels as the generic packRuns and packCols do, bit for bit: the
	// NoTrans A and Trans B blocks are runs, the NoTrans B and Trans A
	// blocks are columns.
	packRuns, packCols func(src []T, ld, cnt, kc, w int, dst []T)
	// gemvCols4 adds x0*c0 + x1*c1 + x2*c2 + x3*c3 to y[:m], where c_j is
	// column j of a (leading dimension lda), over the longest prefix of
	// the m rows its vector width covers, and returns that prefix's
	// length; gemvN finishes the rows after it.
	gemvCols4 func(m int, x0, x1, x2, x3 T, a []T, lda int, y []T) int
	// packs holds the packing buffers of the GEMM driver; see
	// packBuffers.
	packs *packBuffers[T]
}

// portable32 uses a wider 8x4 tile than portable64: float32 halves the
// register footprint, so the tile doubles in M to raise arithmetic
// intensity per packed-panel load, and the A panel doubles with it.
var portable32 = &precision[float32]{
	mc: 256, kc: 256, nc: 1024, mr: 8, nr: 4,
	microKernel: microKernel8x4, packRuns: packRuns[float32], packCols: packCols[float32],
	gemvCols4: gemvCols4[float32], packs: new(packBuffers[float32]),
}

var portable64 = &precision[float64]{
	mc: 128, kc: 256, nc: 1024, mr: 4, nr: 4,
	microKernel: microKernel4x4, packRuns: packRuns[float64], packCols: packCols[float64],
	gemvCols4: gemvCols4[float64], packs: new(packBuffers[float64]),
}

// simdLevel is one pair of SIMD descriptors and whether this CPU can run
// them.
type simdLevel struct {
	name string
	p32  *precision[float32]
	p64  *precision[float64]
	ok   bool
}

// prec32 and prec64 are the descriptors the exported kernels run: the
// widest SIMD pair the CPU can run, the portable pair otherwise.
var prec32, prec64 = selectPrecisions()

func selectPrecisions() (*precision[float32], *precision[float64]) {
	for _, l := range simdPrecisions() {
		if l.ok {
			return l.p32, l.p64
		}
	}
	return portable32, portable64
}

// packBuffers is a free list of GEMM packing buffers for one descriptor.
// Each running gemmSerial takes one buffer and returns it when done, so
// the list never holds more buffers than gemmSerial calls have run at
// once, and a warm caller packs without allocating.
type packBuffers[T float] struct {
	mu   sync.Mutex
	free [][]T
}

// get returns a buffer that holds a full mc x kc block of A, a full
// kc x nc block of B and one mr x nr tile, all of pr's blocking.
func (p *packBuffers[T]) get(pr *precision[T]) []T {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		buf := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return buf
	}
	p.mu.Unlock()
	return make([]T, (pr.mc+pr.nc)*pr.kc+pr.mr*pr.nr)
}

// put hands buf back for the next gemmSerial.
func (p *packBuffers[T]) put(buf []T) {
	p.mu.Lock()
	p.free = append(p.free, buf)
	p.mu.Unlock()
}

// gemvCols4 is the portable GEMV column kernel; it covers all m rows.
//
//blobvet:hotpath
func gemvCols4[T float](m int, x0, x1, x2, x3 T, a []T, lda int, y []T) int {
	y = y[:m]
	c0 := a[:m]
	c1 := a[lda : lda+m]
	c2 := a[2*lda : 2*lda+m]
	c3 := a[3*lda : 3*lda+m]
	for i := range y {
		y[i] += x0*c0[i] + x1*c1[i] + x2*c2[i] + x3*c3[i]
	}
	return m
}

// storeTile writes C = alpha*acc + beta*C on the top-left rows x cols of
// a tile held column-major in acc with leading dimension mr. With
// beta == 0 it does not read C.
//
//blobvet:hotpath
func storeTile[T float](alpha T, acc []T, mr, rows, cols int, beta T, c []T, ldc int) {
	for j := 0; j < cols; j++ {
		src := acc[j*mr : j*mr+rows]
		dst := c[j*ldc : j*ldc+rows]
		if beta == 0 {
			for i, v := range src {
				dst[i] = alpha * v
			}
			continue
		}
		for i, v := range src {
			dst[i] = alpha*v + beta*dst[i]
		}
	}
}

// microKernel4x4 is the float64 micro-kernel: all sixteen accumulators
// live in registers for the whole kc loop.
//
//blobvet:hotpath
func microKernel4x4(kc int, alpha float64, ap, bp []float64, beta float64, c []float64, ldc int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	for l := 0; l < kc; l++ {
		a0, a1, a2, a3 := ap[l*4], ap[l*4+1], ap[l*4+2], ap[l*4+3]
		b0, b1, b2, b3 := bp[l*4], bp[l*4+1], bp[l*4+2], bp[l*4+3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc := [16]float64{
		c00, c10, c20, c30,
		c01, c11, c21, c31,
		c02, c12, c22, c32,
		c03, c13, c23, c33,
	}
	storeTile(alpha, acc[:], 4, 4, 4, beta, c, ldc)
}

// microKernel8x4 is the float32 micro-kernel for one 8x4 tile.
//
//blobvet:hotpath
func microKernel8x4(kc int, alpha float32, ap, bp []float32, beta float32, c []float32, ldc int) {
	var acc [32]float32
	for l := 0; l < kc; l++ {
		b0, b1, b2, b3 := bp[l*4], bp[l*4+1], bp[l*4+2], bp[l*4+3]
		arow := ap[l*8 : l*8+8]
		for ii := 0; ii < 8; ii++ {
			av := arow[ii]
			acc[ii] += av * b0
			acc[8+ii] += av * b1
			acc[16+ii] += av * b2
			acc[24+ii] += av * b3
		}
	}
	storeTile(alpha, acc[:], 8, 8, 4, beta, c, ldc)
}
