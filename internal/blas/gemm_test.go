package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSlice64(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.Float64()*2 - 1
	}
	return s
}

func randSlice32(r *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = r.Float32()*2 - 1
	}
	return s
}

func maxDiff64(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func maxDiff32(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// tolGemm64 scales the comparison tolerance with the length of the reduction.
func tolGemm64(k int) float64 { return 1e-12 * float64(k+1) }

func tolGemm32(k int) float64 { return 2e-5 * float64(k+1) }

func TestOptDgemmMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {4, 4, 4}, {5, 7, 3}, {8, 8, 8},
		{13, 17, 19}, {32, 32, 32}, {33, 31, 29}, {64, 1, 64},
		{1, 64, 64}, {64, 64, 1}, {100, 3, 200}, {3, 100, 200},
		{129, 130, 131}, {200, 200, 16}, {16, 16, 300},
	}
	trs := []Transpose{NoTrans, Trans}
	coeffs := [][2]float64{{1, 0}, {1, 1}, {2.5, -0.5}, {0, 2}, {-1, 0.25}}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, ta := range trs {
			for _, tb := range trs {
				for _, ab := range coeffs {
					alpha, beta := ab[0], ab[1]
					lda, ldb, ldc := m+2, k+1, m+3
					if ta == Trans {
						lda = k + 2
					}
					if tb == Trans {
						ldb = n + 1
					}
					a := randSlice64(r, lda*max(k, m))
					b := randSlice64(r, ldb*max(n, k))
					c := randSlice64(r, ldc*n)
					cRef := append([]float64(nil), c...)
					cOpt := append([]float64(nil), c...)
					RefDgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, cRef, ldc)
					OptDgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, cOpt, ldc)
					if d := maxDiff64(cRef, cOpt); d > tolGemm64(k) {
						t.Fatalf("dgemm %dx%dx%d ta=%c tb=%c alpha=%v beta=%v: max diff %g", m, n, k, ta, tb, alpha, beta, d)
					}
				}
			}
		}
	}
}

func TestOptSgemmMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {8, 8, 8}, {9, 10, 11}, {16, 4, 64},
		{64, 64, 64}, {65, 63, 62}, {1, 128, 32}, {128, 1, 32},
		{257, 33, 12}, {40, 300, 5},
	}
	trs := []Transpose{NoTrans, Trans}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, ta := range trs {
			for _, tb := range trs {
				lda, ldb, ldc := m, k, m
				if ta == Trans {
					lda = k
				}
				if tb == Trans {
					ldb = n
				}
				a := randSlice32(r, lda*max(k, m))
				b := randSlice32(r, ldb*max(n, k))
				c := randSlice32(r, ldc*n)
				cRef := append([]float32(nil), c...)
				cOpt := append([]float32(nil), c...)
				RefSgemm(ta, tb, m, n, k, 1.5, a, lda, b, ldb, 0.5, cRef, ldc)
				OptSgemm(ta, tb, m, n, k, 1.5, a, lda, b, ldb, 0.5, cOpt, ldc)
				if d := maxDiff32(cRef, cOpt); d > tolGemm32(k) {
					t.Fatalf("sgemm %dx%dx%d ta=%c tb=%c: max diff %g", m, n, k, ta, tb, d)
				}
			}
		}
	}
}

// Beta == 0 must write C without reading it, so NaN-poisoned output buffers
// must come out clean (the paper's Table I optimisation contract).
func TestGemmBetaZeroIgnoresC(t *testing.T) {
	m, n, k := 17, 13, 9
	r := rand.New(rand.NewSource(3))
	a64 := randSlice64(r, m*k)
	b64 := randSlice64(r, k*n)
	c64 := make([]float64, m*n)
	for i := range c64 {
		c64[i] = math.NaN()
	}
	for _, f := range []func(){
		func() { RefDgemm(NoTrans, NoTrans, m, n, k, 2, a64, m, b64, k, 0, c64, m) },
		func() { OptDgemm(NoTrans, NoTrans, m, n, k, 2, a64, m, b64, k, 0, c64, m) },
	} {
		for i := range c64 {
			c64[i] = math.NaN()
		}
		f()
		for i, v := range c64 {
			if math.IsNaN(v) {
				t.Fatalf("beta=0 read C at %d", i)
			}
		}
	}
	a32 := randSlice32(r, m*k)
	b32 := randSlice32(r, k*n)
	c32 := make([]float32, m*n)
	for _, f := range []func(){
		func() { RefSgemm(NoTrans, NoTrans, m, n, k, 2, a32, m, b32, k, 0, c32, m) },
		func() { OptSgemm(NoTrans, NoTrans, m, n, k, 2, a32, m, b32, k, 0, c32, m) },
	} {
		for i := range c32 {
			c32[i] = float32(math.NaN())
		}
		f()
		for i, v := range c32 {
			if math.IsNaN(float64(v)) {
				t.Fatalf("sgemm beta=0 read C at %d", i)
			}
		}
	}
}

func TestGemmAlphaZeroOnlyScalesC(t *testing.T) {
	m, n, k := 11, 7, 5
	r := rand.New(rand.NewSource(4))
	a := randSlice64(r, m*k)
	b := randSlice64(r, k*n)
	c := randSlice64(r, m*n)
	want := make([]float64, len(c))
	for i := range c {
		want[i] = 3 * c[i]
	}
	got := append([]float64(nil), c...)
	OptDgemm(NoTrans, NoTrans, m, n, k, 0, a, m, b, k, 3, got, m)
	if d := maxDiff64(want, got); d > 1e-15 {
		t.Fatalf("alpha=0 beta=3 mismatch: %g", d)
	}
}

func TestGemmZeroDims(t *testing.T) {
	a := []float64{1}
	b := []float64{1}
	c := []float64{42}
	// m == 0 and n == 0 are no-ops (C untouched in the n==0 case because no
	// columns exist; in the m==0 case C has no rows).
	OptDgemm(NoTrans, NoTrans, 0, 0, 0, 1, a, 1, b, 1, 0, c, 1)
	if c[0] != 42 { //blobvet:allow floatcompare -- poison value: zero-dim GEMM must leave C bit-identical
		t.Fatalf("zero-dim gemm touched C: %v", c[0])
	}
	// k == 0 with beta=0 must clear C.
	OptDgemm(NoTrans, NoTrans, 1, 1, 0, 1, a, 1, b, 1, 0, c, 1)
	if c[0] != 0 {
		t.Fatalf("k=0 beta=0 should zero C, got %v", c[0])
	}
}

// Property: gemm is linear in alpha.
func TestDgemmAlphaLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		m, n, k := 1+rr.Intn(24), 1+rr.Intn(24), 1+rr.Intn(24)
		a := randSlice64(r, m*k)
		b := randSlice64(r, k*n)
		alpha := rr.Float64()*4 - 2
		c1 := make([]float64, m*n)
		c2 := make([]float64, m*n)
		OptDgemm(NoTrans, NoTrans, m, n, k, alpha, a, m, b, k, 0, c1, m)
		OptDgemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, c2, m)
		for i := range c2 {
			c2[i] *= alpha
		}
		return maxDiff64(c1, c2) <= tolGemm64(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestDgemmTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		m, n, k := 1+rr.Intn(20), 1+rr.Intn(20), 1+rr.Intn(20)
		a := randSlice64(rr, m*k)
		b := randSlice64(rr, k*n)
		c := make([]float64, m*n)  // C = A*B, m x n
		ct := make([]float64, n*m) // Cт = Bᵀ*Aᵀ, n x m
		OptDgemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, c, m)
		OptDgemm(Trans, Trans, n, m, k, 1, b, k, a, m, 0, ct, n)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if math.Abs(c[i+j*m]-ct[j+i*n]) > tolGemm64(k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting K into two accumulating gemms matches a single gemm.
func TestDgemmKSplitAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		m, n := 1+rr.Intn(16), 1+rr.Intn(16)
		k := 2 + rr.Intn(30)
		k1 := 1 + rr.Intn(k-1)
		a := randSlice64(rr, m*k)
		b := randSlice64(rr, k*n)
		whole := make([]float64, m*n)
		split := make([]float64, m*n)
		OptDgemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, whole, m)
		OptDgemm(NoTrans, NoTrans, m, n, k1, 1, a, m, b, k, 0, split, m)
		OptDgemm(NoTrans, NoTrans, m, n, k-k1, 1, a[k1*m:], m, b[k1:], k, 1, split, m)
		return maxDiff64(whole, split) <= tolGemm64(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmSingleThreadMatchesParallel(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	m, n, k := 200, 150, 64
	a := randSlice64(r, m*k)
	b := randSlice64(r, k*n)
	c1 := make([]float64, m*n)
	c2 := make([]float64, m*n)
	old := Threads()
	defer SetThreads(old)
	SetThreads(1)
	OptDgemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, c1, m)
	SetThreads(8)
	OptDgemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, c2, m)
	if d := maxDiff64(c1, c2); d > tolGemm64(k) {
		t.Fatalf("thread-count changed result: %g", d)
	}
}

func TestGemmSkinnyShapes(t *testing.T) {
	// The paper's non-square problem types stress extreme aspect ratios;
	// check a few representative ones against the reference.
	r := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{256, 256, 16 * 256}, // M=N, K=16M
		{32, 32, 2048},       // M=N=32, large K
		{16 * 128, 128, 128}, // M=16K, K=N
		{2048, 2048, 32},     // M=N, K=32
		{1, 4096, 1},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := randSlice64(r, m*k)
		b := randSlice64(r, k*n)
		cRef := make([]float64, m*n)
		cOpt := make([]float64, m*n)
		RefDgemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, cRef, m)
		OptDgemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, cOpt, m)
		if d := maxDiff64(cRef, cOpt); d > tolGemm64(k) {
			t.Fatalf("skinny %v: max diff %g", sh, d)
		}
	}
}
