package blas

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestGemmAllocs guards the GEMM driver's allocation profile: once a
// caller has warmed the descriptor's packing buffers, a one-thread
// OptSgemm or OptDgemm allocates nothing per call, in cache (64², 256²)
// and with a thin k (2048 x 2048 x 32). It counts allocations, so it
// holds on any host.
func TestGemmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count is calibrated without race-detector instrumentation")
	}
	old := Threads()
	t.Cleanup(func() { SetThreads(old) })
	SetThreads(1)
	r := rand.New(rand.NewSource(7))
	for _, sh := range []struct {
		name    string
		m, n, k int
	}{{"square-64", 64, 64, 64}, {"square-256", 256, 256, 256}, {"thin_k32", 2048, 2048, 32}} {
		a32, b32, c32 := randVec[float32](r, sh.m*sh.k), randVec[float32](r, sh.k*sh.n), make([]float32, sh.m*sh.n)
		a64, b64, c64 := randVec[float64](r, sh.m*sh.k), randVec[float64](r, sh.k*sh.n), make([]float64, sh.m*sh.n)
		calls := []struct {
			name string
			call func()
		}{
			{"OptSgemm", func() { OptSgemm(NoTrans, NoTrans, sh.m, sh.n, sh.k, 1, a32, sh.m, b32, sh.k, 0, c32, sh.m) }},
			{"OptDgemm", func() { OptDgemm(NoTrans, NoTrans, sh.m, sh.n, sh.k, 1, a64, sh.m, b64, sh.k, 0, c64, sh.m) }},
		}
		for _, c := range calls {
			name, call := c.name, c.call
			t.Run(fmt.Sprintf("%s/%s", name, sh.name), func(t *testing.T) {
				call()
				if allocs := testing.AllocsPerRun(5, call); allocs != 0 {
					t.Fatalf("%s %s allocates %.0f times per call after warm-up, want 0", name, sh.name, allocs)
				}
			})
		}
	}
}
