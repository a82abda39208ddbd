package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference kernels are the oracle of every other GEMM and GEMV test
// in the repository, so they are checked here against an independent
// computation: op(A), op(B), x and y are drawn as small integer matrices
// and vectors, spelled out element by element, and multiplied in float64.
// With integers in [-4, 4], k, m, n <= 5 and alpha, beta in {0, 1, 2.5},
// every product and sum is exact in float32, so the reference must match
// exactly. With beta == 0 the output starts as NaN, which the Beta=0
// contract says is never read. Storage padding (rows past m, gaps between
// strided elements) holds a sentinel that must come back unchanged.

var (
	oracleTrans   = []Transpose{NoTrans, Trans, ConjTrans}
	oracleScalars = []float64{0, 1, 2.5}
)

// sentinel marks storage the kernels must neither use nor write.
const sentinel = -777

// intMatrix returns a rows x cols matrix of integers in [-4, 4], indexed
// [i][j].
func intMatrix(r *rand.Rand, rows, cols int) [][]float64 {
	x := make([][]float64, rows)
	for i := range x {
		x[i] = make([]float64, cols)
		for j := range x[i] {
			x[i][j] = float64(r.Intn(9) - 4)
		}
	}
	return x
}

// store lays out the logical matrix op(X) = x column-major with leading
// dimension ld, as X itself when tr is NoTrans and as Xᵀ otherwise, over
// a buffer prefilled with the sentinel.
func store[T float](x [][]float64, tr Transpose, ld int) []T {
	rows, cols := len(x), len(x[0])
	if isTrans(tr) {
		rows, cols = cols, rows
	}
	buf := make([]T, ld*cols)
	for i := range buf {
		buf[i] = sentinel
	}
	for i := range x {
		for j, v := range x[i] {
			if isTrans(tr) {
				buf[j+i*ld] = T(v)
			} else {
				buf[i+j*ld] = T(v)
			}
		}
	}
	return buf
}

// exact reports whether got equals want, NaN matching NaN.
func exact[T float](got, want T) bool {
	return got == want || (got != got && want != want) //blobvet:allow floatcompare -- integer operands make every result exact; the oracle must match to the bit
}

func TestRefGemmExact(t *testing.T) {
	t.Run("f32", func(t *testing.T) { checkRefGemm(t, RefSgemm) })
	t.Run("f64", func(t *testing.T) { checkRefGemm(t, RefDgemm) })
}

func checkRefGemm[T float](t *testing.T, ref func(transA, transB Transpose, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int)) {
	r := rand.New(rand.NewSource(11))
	const m, n, k = 3, 4, 5
	for _, ta := range oracleTrans {
		for _, tb := range oracleTrans {
			for _, alpha := range oracleScalars {
				for _, beta := range oracleScalars {
					opA, opB, c0 := intMatrix(r, m, k), intMatrix(r, k, n), intMatrix(r, m, n)
					lda, ldb, ldc := k+1, n+2, m+1
					if ta == NoTrans {
						lda = m + 1
					}
					if tb == NoTrans {
						ldb = k + 2
					}
					a, b := store[T](opA, ta, lda), store[T](opB, tb, ldb)
					c := store[T](c0, NoTrans, ldc)
					want := append([]T(nil), c...)
					for i := 0; i < m; i++ {
						for j := 0; j < n; j++ {
							var sum float64
							for l := 0; l < k; l++ {
								sum += opA[i][l] * opB[l][j]
							}
							want[i+j*ldc] = T(alpha*sum + beta*c0[i][j])
							if beta == 0 {
								c[i+j*ldc] = T(math.NaN())
								want[i+j*ldc] = T(alpha * sum)
							}
						}
					}
					ref(ta, tb, m, n, k, T(alpha), a, lda, b, ldb, T(beta), c, ldc)
					for i := range want {
						if !exact(c[i], want[i]) {
							t.Fatalf("%c%c alpha=%g beta=%g: c[%d] = %g, want %g", ta, tb, alpha, beta, i, float64(c[i]), float64(want[i]))
						}
					}
				}
			}
		}
	}
}

// storeVec lays out the logical vector v at increment inc over a buffer
// prefilled with the sentinel: logical element i sits at i*inc for
// inc > 0 and at (len(v)-1-i)*(-inc) for inc < 0.
func storeVec[T float](v []float64, inc int) (buf []T, at func(i int) int) {
	step := max(inc, -inc)
	at = func(i int) int {
		if inc < 0 {
			return (len(v) - 1 - i) * step
		}
		return i * step
	}
	buf = make([]T, max(1, (len(v)-1)*step+1))
	for i := range buf {
		buf[i] = sentinel
	}
	for i, x := range v {
		buf[at(i)] = T(x)
	}
	return buf, at
}

func TestRefGemvExact(t *testing.T) {
	t.Run("f32", func(t *testing.T) { checkRefGemv(t, RefSgemv) })
	t.Run("f64", func(t *testing.T) { checkRefGemv(t, RefDgemv) })
}

func checkRefGemv[T float](t *testing.T, ref func(trans Transpose, m, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int)) {
	r := rand.New(rand.NewSource(12))
	const m, n = 4, 5
	incs := []int{1, -1, 2, -3}
	for _, tr := range oracleTrans {
		for _, incX := range incs {
			for _, incY := range incs {
				for _, alpha := range oracleScalars {
					for _, beta := range oracleScalars {
						what := fmt.Sprintf("%c incX=%d incY=%d alpha=%g beta=%g", tr, incX, incY, alpha, beta)
						// opA is op(A), lenY x lenX; A itself is m x n.
						lenY, lenX := m, n
						if isTrans(tr) {
							lenY, lenX = n, m
						}
						opA := intMatrix(r, lenY, lenX)
						x0, y0 := intMatrix(r, 1, lenX)[0], intMatrix(r, 1, lenY)[0]
						a := store[T](opA, tr, m+1)
						x, _ := storeVec[T](x0, incX)
						y, atY := storeVec[T](y0, incY)
						want := append([]T(nil), y...)
						for i := 0; i < lenY; i++ {
							var sum float64
							for j := 0; j < lenX; j++ {
								sum += opA[i][j] * x0[j]
							}
							want[atY(i)] = T(alpha*sum + beta*y0[i])
							if beta == 0 {
								y[atY(i)] = T(math.NaN())
								want[atY(i)] = T(alpha * sum)
							}
						}
						ref(tr, m, n, T(alpha), a, m+1, x, incX, T(beta), y, incY)
						for i := range want {
							if !exact(y[i], want[i]) {
								t.Fatalf("%s: y[%d] = %g, want %g", what, i, float64(y[i]), float64(want[i]))
							}
						}
					}
				}
			}
		}
	}
}
