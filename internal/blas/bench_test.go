package blas

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel benchmarks for the real Go BLAS, with its assembly leaves where
// the CPU runs them. These measure the library that executes GPU-BLOB's
// checksum validation; FLOP rates are reported via b.SetBytes-style
// custom metrics below.

func benchDgemm(b *testing.B, m, n, k int, f func(m, n, k int, a []float64, b2 []float64, c []float64)) {
	r := rand.New(rand.NewSource(42))
	a := randSlice64(r, m*k)
	bb := randSlice64(r, k*n)
	c := make([]float64, m*n)
	flops := 2 * float64(m) * float64(n) * float64(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(m, n, k, a, bb, c)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkOptDgemm(b *testing.B) {
	for _, n := range []int{64, 256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchDgemm(b, n, n, n, func(m, nn, k int, a, bb, c []float64) {
				OptDgemm(NoTrans, NoTrans, m, nn, k, 1, a, m, bb, k, 0, c, m)
			})
		})
	}
}

func BenchmarkRefDgemm(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchDgemm(b, n, n, n, func(m, nn, k int, a, bb, c []float64) {
				RefDgemm(NoTrans, NoTrans, m, nn, k, 1, a, m, bb, k, 0, c, m)
			})
		})
	}
}

func BenchmarkOptDgemmNonSquare(b *testing.B) {
	shapes := []struct {
		name    string
		m, n, k int
	}{
		{"tallK_256x256x4096", 256, 256, 4096},
		{"thinK_2048x2048x32", 2048, 2048, 32},
		{"smallMN_32x32x4096", 32, 32, 4096},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			benchDgemm(b, sh.m, sh.n, sh.k, func(m, nn, k int, a, bb, c []float64) {
				OptDgemm(NoTrans, NoTrans, m, nn, k, 1, a, m, bb, k, 0, c, m)
			})
		})
	}
}

func BenchmarkOptSgemm(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(42))
			a := randSlice32(r, n*n)
			bb := randSlice32(r, n*n)
			c := make([]float32, n*n)
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				OptSgemm(NoTrans, NoTrans, n, n, n, 1, a, n, bb, n, 0, c, n)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func BenchmarkOptDgemv(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(42))
			a := randSlice64(r, n*n)
			x := randSlice64(r, n)
			y := make([]float64, n)
			b.SetBytes(int64(n) * int64(n) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				OptDgemv(NoTrans, n, n, 1, a, n, x, 1, 0, y, 1)
			}
		})
	}
}

func BenchmarkOptSgemvTrans(b *testing.B) {
	n := 2048
	r := rand.New(rand.NewSource(42))
	a := randSlice32(r, n*n)
	x := randSlice32(r, n)
	y := make([]float32, n)
	b.SetBytes(int64(n) * int64(n) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptSgemv(Trans, n, n, 1, a, n, x, 1, 0, y, 1)
	}
}
