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

// BenchmarkGemmShapes times the live benchmark's GEMM shapes (liveShapes)
// at one thread, NoTrans x NoTrans, f32 and f64, in GFLOPS.
func BenchmarkGemmShapes(b *testing.B) {
	old := Threads()
	b.Cleanup(func() { SetThreads(old) })
	SetThreads(1)
	for _, sh := range liveShapes {
		flops := 2 * float64(sh.m) * float64(sh.n) * float64(sh.k)
		b.Run("f32/"+sh.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(42))
			a, bb, c := randSlice32(r, sh.m*sh.k), randSlice32(r, sh.k*sh.n), make([]float32, sh.m*sh.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				OptSgemm(NoTrans, NoTrans, sh.m, sh.n, sh.k, 1, a, sh.m, bb, sh.k, 0, c, sh.m)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
		b.Run("f64/"+sh.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(42))
			a, bb, c := randSlice64(r, sh.m*sh.k), randSlice64(r, sh.k*sh.n), make([]float64, sh.m*sh.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				OptDgemm(NoTrans, NoTrans, sh.m, sh.n, sh.k, 1, a, sh.m, bb, sh.k, 0, c, sh.m)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkPackPanels times the pack leaves of every descriptor this
// host runs (named as testKernels names them) on one GEMM block of each
// NoTrans layout, read from a matrix with leading dimension ld, in ns per
// packed element: "runs" packs an mc x kc block of A into mr-wide panels,
// "cols" a kc x nc block of B into nr-wide panels, where nc is the
// largest multiple of nr within 256 columns. kc is the descriptor's,
// capped at ld, and so is mc, rounded down to whole panels.
func BenchmarkPackPanels(b *testing.B) {
	ks32, ks64 := testKernels()
	for _, ld := range []int{64, 256, 2048} {
		for _, k := range ks32 {
			b.Run(fmt.Sprintf("%s/ld=%d", k.name, ld), func(b *testing.B) { benchPack(b, k.pr, ld) })
		}
		for _, k := range ks64 {
			b.Run(fmt.Sprintf("%s/ld=%d", k.name, ld), func(b *testing.B) { benchPack(b, k.pr, ld) })
		}
	}
}

func benchPack[T float](b *testing.B, pr *precision[T], ld int) {
	kc := min(pr.kc, ld)
	dst := make([]T, (pr.mc+pr.nc)*pr.kc)
	src := randVec[T](rand.New(rand.NewSource(1)), ld*max(pr.kc, 256))
	layouts := []struct {
		name   string
		cnt, w int
		pack   func(src []T, ld, cnt, kc, w int, dst []T)
	}{
		{"runs", min(pr.mc, ld) / pr.mr * pr.mr, pr.mr, pr.packRuns},
		{"cols", 256 / pr.nr * pr.nr, pr.nr, pr.packCols},
	}
	for _, lt := range layouts {
		b.Run(lt.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lt.pack(src, ld, lt.cnt, kc, lt.w, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lt.cnt*kc), "ns/elem")
		})
	}
}
