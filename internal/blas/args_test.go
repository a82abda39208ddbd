package blas

import (
	"runtime"
	"testing"
)

// gemmArgs and gemvArgs are the shape arguments the validators check.
type gemmArgs struct {
	transA, transB Transpose
	m, n, k        int
	lda, ldb, ldc  int
}

type gemvArgs struct {
	trans      Transpose
	m, n, lda  int
	incX, incY int
}

func gemmEntry[T float32 | float64](f func(Transpose, Transpose, int, int, int, T, []T, int, []T, int, T, []T, int)) func(gemmArgs) {
	return func(a gemmArgs) {
		buf := make([]T, 64)
		f(a.transA, a.transB, a.m, a.n, a.k, 1, buf, a.lda, buf, a.ldb, 0, buf, a.ldc)
	}
}

func gemvEntry[T float32 | float64](f func(Transpose, int, int, T, []T, int, []T, int, T, []T, int)) func(gemvArgs) {
	return func(a gemvArgs) {
		buf := make([]T, 64)
		f(a.trans, a.m, a.n, 1, buf, a.lda, buf, a.incX, 0, buf, a.incY)
	}
}

// TestEntryPointsRejectBadArgs: every exported GEMM and GEMV entry point
// validates its arguments before touching an operand, so a bad call
// panics with the validator's "blas: ..." message, never with a
// runtime error from deep inside a kernel (or, worse, a silent read of
// the wrong elements).
func TestEntryPointsRejectBadArgs(t *testing.T) {
	// A valid 5x3 GEMM with k=4: A is 5x4 (4x5 transposed), B is 4x3
	// (3x4 transposed), C is 5x3.
	ok := gemmArgs{NoTrans, NoTrans, 5, 3, 4, 5, 4, 5}
	gemmCases := []struct {
		name string
		edit func(*gemmArgs)
		want string
	}{
		{"transA", func(a *gemmArgs) { a.transA = 'X' }, "blas: invalid transpose (X,N)"},
		{"transB", func(a *gemmArgs) { a.transB = 'x' }, "blas: invalid transpose (N,x)"},
		{"m<0", func(a *gemmArgs) { a.m = -1 }, "blas: negative gemm dimension m=-1 n=3 k=4"},
		{"n<0", func(a *gemmArgs) { a.n = -1 }, "blas: negative gemm dimension m=5 n=-1 k=4"},
		{"k<0", func(a *gemmArgs) { a.k = -1 }, "blas: negative gemm dimension m=5 n=3 k=-1"},
		{"lda", func(a *gemmArgs) { a.lda = 4 }, "blas: lda=4 too small for 5 rows"},
		{"lda-trans", func(a *gemmArgs) { a.transA, a.lda = Trans, 3 }, "blas: lda=3 too small for 4 rows"},
		{"ldb", func(a *gemmArgs) { a.ldb = 3 }, "blas: ldb=3 too small for 4 rows"},
		{"ldb-trans", func(a *gemmArgs) { a.transB, a.ldb = ConjTrans, 2 }, "blas: ldb=2 too small for 3 rows"},
		{"ldc", func(a *gemmArgs) { a.ldc = 4 }, "blas: ldc=4 too small for 5 rows"},
		{"ldc-empty", func(a *gemmArgs) { a.m, a.ldc = 0, 0 }, "blas: ldc=0 too small for 0 rows"},
	}
	gemms := map[string]func(gemmArgs){
		"OptSgemm": gemmEntry(OptSgemm), "OptDgemm": gemmEntry(OptDgemm),
		"RefSgemm": gemmEntry(RefSgemm), "RefDgemm": gemmEntry(RefDgemm),
	}
	for name, call := range gemms {
		for _, tc := range gemmCases {
			a := ok
			tc.edit(&a)
			t.Run(name+"/"+tc.name, func(t *testing.T) { expectValidatorPanic(t, tc.want, func() { call(a) }) })
		}
	}

	// A valid 5x3 GEMV.
	okv := gemvArgs{NoTrans, 5, 3, 5, 1, 1}
	gemvCases := []struct {
		name string
		edit func(*gemvArgs)
		want string
	}{
		{"trans", func(a *gemvArgs) { a.trans = 'X' }, "blas: invalid transpose X"},
		{"m<0", func(a *gemvArgs) { a.m = -1 }, "blas: negative gemv dimension m=-1 n=3"},
		{"n<0", func(a *gemvArgs) { a.n = -1 }, "blas: negative gemv dimension m=5 n=-1"},
		{"lda", func(a *gemvArgs) { a.lda = 4 }, "blas: lda=4 too small for 5 rows"},
		{"lda-trans", func(a *gemvArgs) { a.trans, a.lda = Trans, 4 }, "blas: lda=4 too small for 5 rows"},
		{"incX", func(a *gemvArgs) { a.incX = 0 }, "blas: zero vector increment"},
		{"incY", func(a *gemvArgs) { a.incY = 0 }, "blas: zero vector increment"},
	}
	gemvs := map[string]func(gemvArgs){
		"OptSgemv": gemvEntry(OptSgemv), "OptDgemv": gemvEntry(OptDgemv),
		"RefSgemv": gemvEntry(RefSgemv), "RefDgemv": gemvEntry(RefDgemv),
	}
	for name, call := range gemvs {
		for _, tc := range gemvCases {
			a := okv
			tc.edit(&a)
			t.Run(name+"/"+tc.name, func(t *testing.T) { expectValidatorPanic(t, tc.want, func() { call(a) }) })
		}
	}
}

func expectValidatorPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		switch r := recover().(type) {
		case nil:
			t.Fatalf("no panic, want %q", want)
		case runtime.Error:
			t.Fatalf("runtime panic %q, want the validator's %q", r, want)
		case string:
			if r != want {
				t.Fatalf("panic %q, want %q", r, want)
			}
		default:
			t.Fatalf("panic %v (%T), want %q", r, r, want)
		}
	}()
	f()
}
