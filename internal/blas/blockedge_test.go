package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// tileEdges are the blocking parameters of one precision descriptor's
// GEMM: the mr x nr register tile and the mc x kc x nc cache blocks. The
// block-edge test puts problem sizes at ±1 of each, so that a kernel wired
// with another descriptor's tile — or a packer and micro-kernel that
// disagree on it — shows up as a mismatch against the reference kernels.
type tileEdges struct{ mr, nr, mc, kc, nc int }

func edgesOf[T float](pr *precision[T]) tileEdges {
	return tileEdges{mr: pr.mr, nr: pr.nr, mc: pr.mc, kc: pr.kc, nc: pr.nc}
}

// precisionKernels runs the generic drivers under one precision
// descriptor, to be checked against the reference kernels.
type precisionKernels[T float32 | float64] struct {
	name string
	pr   *precision[T]
}

// testKernels lists every descriptor this host can run, named as its
// subtests are: the active one, which the exported entry points use, as
// "f32" and "f64"; each other SIMD descriptor the CPU probe allows as
// "f32-<name>" and "f64-<name>" (for example "f32-avx2" when the AVX-512
// leaves are active); and the portable fallback as "f32-portable" and
// "f64-portable" when the probe picked SIMD leaves instead.
func testKernels() ([]precisionKernels[float32], []precisionKernels[float64]) {
	ks32 := []precisionKernels[float32]{{"f32", prec32}}
	ks64 := []precisionKernels[float64]{{"f64", prec64}}
	for _, l := range simdPrecisions() {
		if l.ok && l.p32 != prec32 {
			ks32 = append(ks32, precisionKernels[float32]{"f32-" + l.name, l.p32})
			ks64 = append(ks64, precisionKernels[float64]{"f64-" + l.name, l.p64})
		}
	}
	if prec32 != portable32 {
		ks32 = append(ks32, precisionKernels[float32]{"f32-portable", portable32})
		ks64 = append(ks64, precisionKernels[float64]{"f64-portable", portable64})
	}
	return ks32, ks64
}

// The generic drivers behind the exported entry points, run under the
// descriptor k.pr; each validates its arguments as the entry point does.

func (k precisionKernels[T]) gemm(transA, transB Transpose, m, n, kk int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	checkGemm(transA, transB, m, n, kk, lda, ldb, ldc)
	gemm(k.pr, transA, transB, m, n, kk, alpha, a, lda, b, ldb, beta, c, ldc)
}

func (k precisionKernels[T]) gemv(trans Transpose, m, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int) {
	checkGemv(trans, m, n, lda, incX, incY)
	gemv(k.pr, trans, m, n, alpha, a, lda, x, incX, beta, y, incY)
}

// TestBlockEdgesMatchRef is a seeded differential test of the GEMM and
// GEMV drivers against the reference kernels at each descriptor's own
// blocking edges, for every descriptor the host can run. It runs single-threaded (the
// serial path) and with two workers, where large enough problems take the
// parallel split paths.
func TestBlockEdgesMatchRef(t *testing.T) {
	old := Threads()
	t.Cleanup(func() { SetThreads(old) })
	ks32, ks64 := testKernels()
	for _, threads := range []int{1, 2} {
		SetThreads(threads)
		for _, k := range ks32 {
			t.Run(fmt.Sprintf("threads=%d/%s", threads, k.name), func(t *testing.T) { checkBlockEdges(t, k) })
		}
		for _, k := range ks64 {
			t.Run(fmt.Sprintf("threads=%d/%s", threads, k.name), func(t *testing.T) { checkBlockEdges(t, k) })
		}
	}
}

func checkBlockEdges[T float32 | float64](t *testing.T, k precisionKernels[T]) {
	e := edgesOf(k.pr)
	r := rand.New(rand.NewSource(int64(e.mr*1000 + e.mc)))
	trans := []Transpose{NoTrans, Trans, ConjTrans}
	coeffs := [][2]T{{1, 0}, {1.5, -0.5}, {-1, 1}, {0.5, 2}}

	t.Run("gemm", func(t *testing.T) {
		shapes := [][3]int{
			{e.mr - 1, e.nr - 1, 1}, {e.mr, e.nr, 2}, {e.mr + 1, e.nr + 1, 3},
			{e.mc - 1, e.nr + 1, 5}, {e.mc, e.nr, 4}, {e.mc + 1, e.nr - 1, 6},
			{e.mr + 1, e.nr + 1, e.kc - 1}, {e.mr, e.nr + 1, e.kc}, {e.mr - 1, e.nr, e.kc + 1},
			{e.mr + 1, e.nc - 1, 3}, {e.mr - 1, e.nc, 2}, {e.mr, e.nc + 1, 4},
			{e.mc + 1, e.nr + 1, e.kc + 1}, {e.mc + 1, e.nc + 1, 3},
			// Large enough to split across two workers, each of whose
			// halves still crosses mc (split over m) or nc (split over n).
			{2*e.mc + 2, e.nr + 1, e.kc / 4}, {e.mr + 1, 2*e.nc + 2, 8},
		}
		i := 0
		for _, sh := range shapes {
			m, n, kk := sh[0], sh[1], sh[2]
			for _, ta := range trans {
				for _, tb := range trans {
					ab := coeffs[i%len(coeffs)]
					rowsA, colsA, rowsB, colsB := m, kk, kk, n
					if isTrans(ta) {
						rowsA, colsA = kk, m
					}
					if isTrans(tb) {
						rowsB, colsB = n, kk
					}
					lda, ldb, ldc := rowsA+1+i%3, rowsB+2, m+3
					a := randVec[T](r, lda*colsA)
					b := randVec[T](r, ldb*colsB)
					want := randVec[T](r, ldc*n)
					got := append([]T(nil), want...)
					refGemm(ta, tb, m, n, kk, ab[0], a, lda, b, ldb, ab[1], want, ldc)
					k.gemm(ta, tb, m, n, kk, ab[0], a, lda, b, ldb, ab[1], got, ldc)
					assertClose(t, fmt.Sprintf("gemm %c%c m=%d n=%d k=%d", ta, tb, m, n, kk), got, want)
					i++
				}
			}
		}
	})

	t.Run("gemv", func(t *testing.T) {
		shapes := [][2]int{
			{e.mr - 1, e.nr + 1}, {e.mr + 1, e.nr - 1}, {e.mc - 1, e.mc + 1},
			{e.mc + 1, e.nc + 1}, {e.nc + 1, e.mr + 1}, {e.nc - 1, e.kc + 1},
		}
		for i, sh := range shapes {
			m, n := sh[0], sh[1]
			for _, tr := range trans {
				ab := coeffs[i%len(coeffs)]
				lda := m + 1
				a := randVec[T](r, lda*n)
				x := randVec[T](r, lenGemvX(tr, m, n))
				want := randVec[T](r, lenGemvY(tr, m, n))
				got := append([]T(nil), want...)
				refGemv(tr, m, n, ab[0], a, lda, x, 1, ab[1], want, 1)
				k.gemv(tr, m, n, ab[0], a, lda, x, 1, ab[1], got, 1)
				assertClose(t, fmt.Sprintf("gemv %c m=%d n=%d", tr, m, n), got, want)
			}
		}
	})

	// The subtests below run GEMM and GEMV on the operands of the
	// operations that callers build from them: a batch laid out at a
	// stride in one buffer, a rank-1 update, symmetric and triangular
	// matrices, A times its own transpose, and the updates of a blocked
	// triangular solve.

	t.Run("strided-batched", func(t *testing.T) {
		const batch = 3
		cases := []struct {
			m, n, kk int
			ta, tb   Transpose
		}{
			{e.mr + 1, e.nr + 1, e.kc + 1, NoTrans, Trans},
			{e.mc + 1, e.nr - 1, 3, Trans, NoTrans},
			{e.mr - 1, e.nr, e.kc - 1, ConjTrans, ConjTrans},
		}
		for _, c := range cases {
			rowsA, colsA, rowsB, colsB := c.m, c.kk, c.kk, c.n
			if isTrans(c.ta) {
				rowsA, colsA = c.kk, c.m
			}
			if isTrans(c.tb) {
				rowsB, colsB = c.n, c.kk
			}
			lda, ldb, ldc := rowsA+1, rowsB+1, c.m+1
			sA, sB, sC := lda*colsA+7, ldb*colsB+5, ldc*c.n+3
			a := randVec[T](r, sA*batch)
			b := randVec[T](r, sB*batch)
			want := randVec[T](r, sC*batch)
			got := append([]T(nil), want...)
			for i := 0; i < batch; i++ {
				refGemm(c.ta, c.tb, c.m, c.n, c.kk, 1.5, a[i*sA:], lda, b[i*sB:], ldb, 0.5, want[i*sC:], ldc)
				k.gemm(c.ta, c.tb, c.m, c.n, c.kk, 1.5, a[i*sA:], lda, b[i*sB:], ldb, 0.5, got[i*sC:], ldc)
			}
			assertClose(t, fmt.Sprintf("strided-batched %c%c m=%d n=%d k=%d", c.ta, c.tb, c.m, c.n, c.kk), got, want)
		}
	})

	// A rank-1 update A += alpha*x*y^T is a GEMM with k = 1, y stored
	// either as a 1 x n row or as an n x 1 column read transposed.
	t.Run("ger", func(t *testing.T) {
		for _, sh := range [][2]int{{e.mr + 1, e.nr - 1}, {e.mc + 1, e.nc + 1}, {e.nc - 1, e.mc - 1}} {
			m, n := sh[0], sh[1]
			lda := m + 2
			x := randVec[T](r, m)
			y := randVec[T](r, n)
			for _, tb := range []Transpose{NoTrans, Trans} {
				ldy := 1
				if isTrans(tb) {
					ldy = n
				}
				want := randVec[T](r, lda*n)
				got := append([]T(nil), want...)
				refGemm(NoTrans, tb, m, n, 1, 1.5, x, m, y, ldy, 1, want, lda)
				k.gemm(NoTrans, tb, m, n, 1, 1.5, x, m, y, ldy, 1, got, lda)
				assertClose(t, fmt.Sprintf("ger %c m=%d n=%d", tb, m, n), got, want)
			}
		}
	})

	// For a symmetric A, GEMV with and without transposition must agree.
	t.Run("symv", func(t *testing.T) {
		for i, n := range []int{e.mr - 1, e.mr + 1, e.mc - 1, e.mc + 1, 2*e.mc + 1} {
			ab := coeffs[i%len(coeffs)]
			lda := n + 1
			a := randSymmetric[T](r, n, lda)
			x := randVec[T](r, n)
			y := randVec[T](r, n)
			var got [2][]T
			for j, tr := range []Transpose{NoTrans, Trans} {
				want := append([]T(nil), y...)
				got[j] = append([]T(nil), y...)
				refGemv(tr, n, n, ab[0], a, lda, x, 1, ab[1], want, 1)
				k.gemv(tr, n, n, ab[0], a, lda, x, 1, ab[1], got[j], 1)
				assertClose(t, fmt.Sprintf("symv %c n=%d", tr, n), got[j], want)
			}
			assertClose(t, fmt.Sprintf("symv n=%d, transposed against not", n), got[1], got[0])
		}
	})

	// Orders that cross the 64 x 64 diagonal blocks of a blocked
	// triangular solve, and this precision's mc at the largest.
	orders := []int{63, 65, 129, 2*e.mc + 2}
	other := e.nr + 1

	// Solve L*X = B by 64-row blocks: forward substitution on each
	// diagonal block, then the GEMM update B2 -= L21*X1 of the rows
	// below it, on views into L and X. The residual L*X - B is checked.
	t.Run("trsm", func(t *testing.T) {
		const nb = 64
		for _, na := range orders {
			l := randTriangularT[T](r, na, false)
			ldb := na + 1
			b := randVec[T](r, ldb*other)
			x := append([]T(nil), b...)
			for j0 := 0; j0 < na; j0 += nb {
				j1 := min(j0+nb, na)
				for c := 0; c < other; c++ {
					for i := j0; i < j1; i++ {
						s := x[i+c*ldb]
						for p := j0; p < i; p++ {
							s -= l[i+p*na] * x[p+c*ldb]
						}
						x[i+c*ldb] = s / l[i+i*na]
					}
				}
				if j1 < na {
					k.gemm(NoTrans, NoTrans, na-j1, other, j1-j0, -1, l[j1+j0*na:], na, x[j0:], ldb, 1, x[j1:], ldb)
				}
			}
			lx := append([]T(nil), b...)
			refGemm(NoTrans, NoTrans, na, other, na, 1, l, na, x, ldb, 0, lx, ldb)
			assertClose(t, fmt.Sprintf("trsm residual n=%d", na), lx, b)
		}
	})

	// A triangular op(A) times B from either side, with C starting NaN
	// under beta == 0.
	t.Run("trmm", func(t *testing.T) {
		for _, na := range orders {
			for _, right := range []bool{false, true} {
				for _, upper := range []bool{false, true} {
					a := randTriangularT[T](r, na, upper)
					for _, tr := range []Transpose{NoTrans, Trans} {
						m, n := na, other
						if right {
							m, n = other, na
						}
						ldb := m + 1
						b := randVec[T](r, ldb*n)
						want := randVec[T](r, ldb*n)
						for j := 0; j < n; j++ {
							for i := 0; i < m; i++ {
								want[i+j*ldb] = T(math.NaN())
							}
						}
						got := append([]T(nil), want...)
						if right {
							refGemm(NoTrans, tr, m, n, na, 1.5, b, ldb, a, na, 0, want, ldb)
							k.gemm(NoTrans, tr, m, n, na, 1.5, b, ldb, a, na, 0, got, ldb)
						} else {
							refGemm(tr, NoTrans, m, n, na, 1.5, a, na, b, ldb, 0, want, ldb)
							k.gemm(tr, NoTrans, m, n, na, 1.5, a, na, b, ldb, 0, got, ldb)
						}
						assertClose(t, fmt.Sprintf("trmm right=%t upper=%t %c m=%d n=%d", right, upper, tr, m, n), got, want)
					}
				}
			}
		}
	})

	// C = alpha*op(A)*op(A)^T + beta*C, with one slice passed as both A
	// and B.
	t.Run("syrk", func(t *testing.T) {
		for _, sh := range [][2]int{{63, e.kc + 1}, {65, e.kc - 1}, {129, e.kc + 1}, {2*e.mc + 2, 3}} {
			n, kk := sh[0], sh[1]
			for _, tr := range [][2]Transpose{{NoTrans, Trans}, {Trans, NoTrans}} {
				lda, cols := n+1, kk
				if isTrans(tr[0]) {
					lda, cols = kk+1, n
				}
				a := randVec[T](r, lda*cols)
				ldc := n + 2
				want := randVec[T](r, ldc*n)
				got := append([]T(nil), want...)
				refGemm(tr[0], tr[1], n, n, kk, 1.5, a, lda, a, lda, 0.5, want, ldc)
				k.gemm(tr[0], tr[1], n, n, kk, 1.5, a, lda, a, lda, 0.5, got, ldc)
				assertClose(t, fmt.Sprintf("syrk %c%c n=%d k=%d", tr[0], tr[1], n, kk), got, want)
			}
		}
	})

	// A symmetric A times B from either side.
	t.Run("symm", func(t *testing.T) {
		for _, na := range orders {
			a := randSymmetric[T](r, na, na)
			for _, right := range []bool{false, true} {
				m, n := na, other
				if right {
					m, n = other, na
				}
				ldb, ldc := m+1, m+2
				b := randVec[T](r, ldb*n)
				want := randVec[T](r, ldc*n)
				got := append([]T(nil), want...)
				if right {
					refGemm(NoTrans, NoTrans, m, n, na, 1.5, b, ldb, a, na, 0.5, want, ldc)
					k.gemm(NoTrans, NoTrans, m, n, na, 1.5, b, ldb, a, na, 0.5, got, ldc)
				} else {
					refGemm(NoTrans, NoTrans, m, n, na, 1.5, a, na, b, ldb, 0.5, want, ldc)
					k.gemm(NoTrans, NoTrans, m, n, na, 1.5, a, na, b, ldb, 0.5, got, ldc)
				}
				assertClose(t, fmt.Sprintf("symm right=%t m=%d n=%d", right, m, n), got, want)
			}
		}
	})
}

func randVec[T float32 | float64](r *rand.Rand, n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = T(r.Float64()*2 - 1)
	}
	return s
}

// randSymmetric builds an n x n symmetric matrix, both triangles stored,
// with leading dimension ld.
func randSymmetric[T float32 | float64](r *rand.Rand, n, ld int) []T {
	a := make([]T, ld*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := T(r.Float64()*2 - 1)
			a[i+j*ld], a[j+i*ld] = v, v
		}
	}
	return a
}

// randTriangularT builds a well-conditioned na x na triangular matrix
// (lower unless upper) whose other triangle is zero.
func randTriangularT[T float32 | float64](r *rand.Rand, na int, upper bool) []T {
	a := make([]T, na*na)
	for j := 0; j < na; j++ {
		for i := 0; i < na; i++ {
			switch {
			case i == j:
				a[i+j*na] = T(2 + r.Float64())
			case upper == (i < j):
				a[i+j*na] = T((r.Float64()*2 - 1) / float64(na))
			}
		}
	}
	return a
}

// assertClose fails t at the first element where got and want differ by
// more than the paper's 0.1% checksum tolerance (§III-B), taken relative
// to max(1, |want|). NaN in either operand fails.
func assertClose[T float32 | float64](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range want {
		g, w := float64(got[i]), float64(want[i])
		if !(math.Abs(g-w) <= 1e-3*math.Max(1, math.Abs(w))) {
			t.Fatalf("%s: element %d = %g, reference %g", what, i, g, w)
		}
	}
}

// TestPrecisionTiles pins each precision descriptor's tiles, and checks
// that the exported kernels run the widest SIMD descriptors the CPU probe
// allows, or the portable ones when it allows none.
func TestPrecisionTiles(t *testing.T) {
	check := func(what string, got, want tileEdges) {
		t.Helper()
		if got != want {
			t.Errorf("%s tiles %+v, want %+v", what, got, want)
		}
		if want.mc%want.mr != 0 || want.nc%want.nr != 0 {
			t.Errorf("%s blocks %+v are not whole register tiles", what, want)
		}
	}
	check("portable float32", edgesOf(portable32), tileEdges{mr: 8, nr: 4, mc: 256, kc: 256, nc: 1024})
	check("portable float64", edgesOf(portable64), tileEdges{mr: 4, nr: 4, mc: 128, kc: 256, nc: 1024})
	want := map[string][2]tileEdges{
		"avx512": {{mr: 32, nr: 12, mc: 256, kc: 256, nc: 1032}, {mr: 16, nr: 12, mc: 128, kc: 256, nc: 1032}},
		"avx2":   {{mr: 16, nr: 6, mc: 256, kc: 256, nc: 1026}, {mr: 8, nr: 6, mc: 128, kc: 256, nc: 1026}},
	}
	active32, active64 := portable32, portable64
	for _, l := range simdPrecisions() {
		w, ok := want[l.name]
		if !ok {
			t.Errorf("unpinned SIMD descriptor %q", l.name)
			continue
		}
		check(l.name+" float32", edgesOf(l.p32), w[0])
		check(l.name+" float64", edgesOf(l.p64), w[1])
		if l.ok && active32 == portable32 {
			active32, active64 = l.p32, l.p64
		}
	}
	if prec32 != active32 || prec64 != active64 {
		t.Errorf("exported kernels run tiles %+v/%+v, probe allows %+v/%+v",
			edgesOf(prec32), edgesOf(prec64), edgesOf(active32), edgesOf(active64))
	}
}
