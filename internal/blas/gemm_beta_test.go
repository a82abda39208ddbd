package blas

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestGemmFusedBeta is a seeded differential test of the beta that the
// micro-kernel applies while it writes C, against the reference kernels
// at the paper's 0.1% tolerance, under every descriptor the host can run,
// at one and two threads. Each GEMM is two register tiles plus one row
// and one column in each direction, so it covers both the full tiles the
// kernel writes straight into C and the edge tiles clipped through the
// tile buffer. With beta == 0, C starts as NaN: the kernels must not read
// it. k = kc+1 puts a second kc block behind the first, which must
// accumulate onto the first block's result instead of applying beta
// again.
func TestGemmFusedBeta(t *testing.T) {
	old := Threads()
	t.Cleanup(func() { SetThreads(old) })
	ks32, ks64 := testKernels()
	for _, threads := range []int{1, 2} {
		SetThreads(threads)
		for _, k := range ks32 {
			t.Run(fmt.Sprintf("threads=%d/%s", threads, k.name), func(t *testing.T) { checkFusedBeta(t, k) })
		}
		for _, k := range ks64 {
			t.Run(fmt.Sprintf("threads=%d/%s", threads, k.name), func(t *testing.T) { checkFusedBeta(t, k) })
		}
	}
}

// betaCase is one GEMM of a fused-beta test: op(A) is m x kk.
type betaCase[T float32 | float64] struct {
	ta, tb      Transpose
	m, n, kk    int
	alpha, beta T
}

func (c betaCase[T]) String() string {
	return fmt.Sprintf("%c%c m=%d n=%d k=%d alpha=%g beta=%g", c.ta, c.tb, c.m, c.n, c.kk, float64(c.alpha), float64(c.beta))
}

// operands draws A and B for c with padded leading dimensions, and a C
// (leading dimension m+2) whose m x n body is NaN when beta == 0 and
// random otherwise; the padding rows are random either way.
func (c betaCase[T]) operands(r *rand.Rand) (a []T, lda int, b []T, ldb int, cc []T, ldc int) {
	rowsA, colsA, rowsB, colsB := c.m, c.kk, c.kk, c.n
	if isTrans(c.ta) {
		rowsA, colsA = c.kk, c.m
	}
	if isTrans(c.tb) {
		rowsB, colsB = c.n, c.kk
	}
	lda, ldb, ldc = rowsA+1, rowsB+1, c.m+2
	a = randVec[T](r, lda*max(colsA, 1))
	b = randVec[T](r, ldb*max(colsB, 1))
	cc = randVec[T](r, ldc*c.n)
	if c.beta == 0 {
		for j := 0; j < c.n; j++ {
			for i := 0; i < c.m; i++ {
				cc[i+j*ldc] = T(math.NaN())
			}
		}
	}
	return a, lda, b, ldb, cc, ldc
}

func checkFusedBeta[T float32 | float64](t *testing.T, k precisionKernels[T]) {
	e := edgesOf(k.pr)
	r := rand.New(rand.NewSource(int64(e.mr*100 + e.nr)))
	m, n := 2*e.mr+1, 2*e.nr+1
	var cases []betaCase[T]
	for _, tt := range [][2]Transpose{{NoTrans, NoTrans}, {Trans, Trans}, {NoTrans, Trans}} {
		for _, kk := range []int{3, e.kc + 1} {
			cases = append(cases, betaCase[T]{tt[0], tt[1], m, n, kk, 1.5, 0})
		}
		for _, beta := range []T{-1, 0.5, 1} {
			cases = append(cases, betaCase[T]{tt[0], tt[1], m, n, e.kc + 1, -0.5, beta})
		}
	}
	for _, beta := range []T{0, 0.5} {
		cases = append(cases,
			betaCase[T]{NoTrans, NoTrans, m, n, e.kc + 1, 0, beta},
			betaCase[T]{NoTrans, NoTrans, m, n, 0, 1.5, beta})
	}

	t.Run("gemm", func(t *testing.T) {
		for _, c := range cases {
			a, lda, b, ldb, got, ldc := c.operands(r)
			want := append([]T(nil), got...)
			refGemm(c.ta, c.tb, c.m, c.n, c.kk, c.alpha, a, lda, b, ldb, c.beta, want, ldc)
			k.gemm(c.ta, c.tb, c.m, c.n, c.kk, c.alpha, a, lda, b, ldb, c.beta, got, ldc)
			assertClose(t, "gemm "+c.String(), got, want)
		}
	})

	// The cases as one batch of GEMMs issued at once, one goroutine each,
	// all drawing on this descriptor's shared packing buffers.
	t.Run("batched", func(t *testing.T) {
		got, want := make([][]T, len(cases)), make([][]T, len(cases))
		var wg sync.WaitGroup
		for i, c := range cases {
			a, lda, b, ldb, cc, ldc := c.operands(r)
			want[i] = append([]T(nil), cc...)
			refGemm(c.ta, c.tb, c.m, c.n, c.kk, c.alpha, a, lda, b, ldb, c.beta, want[i], ldc)
			got[i] = cc
			wg.Add(1)
			go func(c betaCase[T], a, b, cc []T) {
				defer wg.Done()
				k.gemm(c.ta, c.tb, c.m, c.n, c.kk, c.alpha, a, lda, b, ldb, c.beta, cc, ldc)
			}(c, a, b, cc)
		}
		wg.Wait()
		for i, c := range cases {
			assertClose(t, "batched "+c.String(), got[i], want[i])
		}
	})

	// Each case as a batch of GEMMs on views into one buffer per operand,
	// laid out at a stride one element longer than each operand, so a
	// write past an entry's C lands in the gap or the next entry.
	t.Run("strided-batched", func(t *testing.T) {
		const batch = 3
		for _, c := range cases {
			var a, b, got []T
			var lda, ldb, ldc, sA, sB, sC int
			for i := 0; i < batch; i++ {
				ai, la, bi, lb, ci, lc := c.operands(r)
				lda, ldb, ldc, sA, sB, sC = la, lb, lc, len(ai)+1, len(bi)+1, len(ci)+1
				a, b, got = append(append(a, ai...), 0), append(append(b, bi...), 0), append(append(got, ci...), 0)
			}
			want := append([]T(nil), got...)
			for i := 0; i < batch; i++ {
				refGemm(c.ta, c.tb, c.m, c.n, c.kk, c.alpha, a[i*sA:], lda, b[i*sB:], ldb, c.beta, want[i*sC:], ldc)
				k.gemm(c.ta, c.tb, c.m, c.n, c.kk, c.alpha, a[i*sA:], lda, b[i*sB:], ldb, c.beta, got[i*sC:], ldc)
			}
			assertClose(t, "strided-batched "+c.String(), got, want)
		}
	})

	// C = 1.5*op(A)*op(A)^T + beta*C with one slice passed as both A and
	// B, at order 2*64+1: at least two full tiles of every descriptor each
	// way, plus clipped edge tiles, and two kc blocks.
	t.Run("syrk", func(t *testing.T) {
		const nn = 129
		kk := e.kc + 1
		for _, beta := range []T{0, 0.5} {
			for _, tr := range [][2]Transpose{{NoTrans, Trans}, {Trans, NoTrans}} {
				c := betaCase[T]{tr[0], tr[1], nn, nn, kk, 1.5, beta}
				a, lda, _, _, got, ldc := c.operands(r)
				want := append([]T(nil), got...)
				refGemm(c.ta, c.tb, nn, nn, kk, c.alpha, a, lda, a, lda, beta, want, ldc)
				k.gemm(c.ta, c.tb, nn, nn, kk, c.alpha, a, lda, a, lda, beta, got, ldc)
				assertClose(t, "syrk "+c.String(), got, want)
			}
		}
	})
}
