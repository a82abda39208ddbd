package blas

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRandomShapesMatchRef is a seeded property test of the GEMM and GEMV
// drivers against the reference kernels, within the paper's 0.1%
// checksum tolerance, under every descriptor the host can run. Each draw
// picks the dimensions (0 to 300), padded leading dimensions, operands
// that start one element into their allocation (so no vector load is
// aligned), GEMV increments that are negative or non-unit, and alpha and
// beta from {0, 1, -1, random}. The whole output buffer is compared, so
// a write into the padding or past the last element fails too.
func TestRandomShapesMatchRef(t *testing.T) {
	ks32, ks64 := testKernels()
	for _, k := range ks32 {
		t.Run(k.name, func(t *testing.T) { checkRandomShapes(t, k) })
	}
	for _, k := range ks64 {
		t.Run(k.name, func(t *testing.T) { checkRandomShapes(t, k) })
	}
}

func checkRandomShapes[T float32 | float64](t *testing.T, k precisionKernels[T]) {
	r := rand.New(rand.NewSource(20))
	// dim favours the small sizes where tile and vector edges cluster.
	dim := func() int {
		if r.Intn(4) == 0 {
			return r.Intn(20)
		}
		return r.Intn(301)
	}
	scalar := func() T {
		switch r.Intn(4) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return -1
		}
		return T(r.Float64()*4 - 2)
	}
	// operand returns a random slice of n elements that starts one
	// element into its allocation.
	operand := func(n int) []T { return randVec[T](r, n+1)[1:] }
	trans := []Transpose{NoTrans, Trans, ConjTrans}

	for draw := 0; draw < 6*len(trans)*len(trans); draw++ {
		ta, tb := trans[draw%3], trans[draw/3%3]
		m, n, kk := dim(), dim(), dim()
		alpha, beta := scalar(), scalar()
		rowsA, colsA, rowsB, colsB := m, kk, kk, n
		if isTrans(ta) {
			rowsA, colsA = kk, m
		}
		if isTrans(tb) {
			rowsB, colsB = n, kk
		}
		lda, ldb, ldc := max(1, rowsA)+r.Intn(4), max(1, rowsB)+r.Intn(4), max(1, m)+r.Intn(4)
		a, b := operand(lda*colsA), operand(ldb*colsB)
		want := operand(ldc * n)
		got := append([]T(nil), want...)
		refGemm(ta, tb, m, n, kk, alpha, a, lda, b, ldb, beta, want, ldc)
		k.gemm(ta, tb, m, n, kk, alpha, a, lda, b, ldb, beta, got, ldc)
		assertClose(t, fmt.Sprintf("draw %d gemm %c%c m=%d n=%d k=%d lda=%d ldb=%d ldc=%d alpha=%g beta=%g",
			draw, ta, tb, m, n, kk, lda, ldb, ldc, alpha, beta), got, want)
	}

	incs := []int{1, 1, 2, -1, -3}
	for draw := 0; draw < 60; draw++ {
		tr := []Transpose{NoTrans, Trans}[draw%2]
		m, n := dim(), dim()
		alpha, beta := scalar(), scalar()
		incX, incY := incs[r.Intn(len(incs))], incs[r.Intn(len(incs))]
		lda := max(1, m) + r.Intn(4)
		a := operand(lda * n)
		x := operand(stridedLen(lenGemvX(tr, m, n), incX))
		want := operand(stridedLen(lenGemvY(tr, m, n), incY))
		got := append([]T(nil), want...)
		refGemv(tr, m, n, alpha, a, lda, x, incX, beta, want, incY)
		k.gemv(tr, m, n, alpha, a, lda, x, incX, beta, got, incY)
		assertClose(t, fmt.Sprintf("draw %d gemv %c m=%d n=%d lda=%d incX=%d incY=%d alpha=%g beta=%g",
			draw, tr, m, n, lda, incX, incY, alpha, beta), got, want)
	}
}

// stridedLen is the number of elements a vector of n logical elements
// spans at increment inc.
func stridedLen(n, inc int) int {
	if n == 0 {
		return 0
	}
	return 1 + (n-1)*max(inc, -inc)
}
