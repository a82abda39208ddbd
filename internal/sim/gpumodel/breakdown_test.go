package gpumodel_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/bench_data"
	"repro/internal/sim/gpumodel"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// TestBreakdownProperties draws random calls for every GPU model of the
// paper systems, roofline and blackbox, and checks that one breakdown per
// call reproduces the per-strategy models bit for bit and keeps the
// strategy relations of Tables III–VI: Transfer-Always never beats
// Transfer-Once at equal iterations, and the two coincide at one
// iteration.
func TestBreakdownProperties(t *testing.T) {
	tables, err := benchdata.Default()
	if err != nil {
		t.Fatal(err)
	}
	var models []gpumodel.Model
	var names []string
	for _, sys := range systems.All() {
		models = append(models, sys.GPU, sys.WithEffTables(tables).GPU)
		names = append(names, sys.Name+"/roofline", sys.Name+"/blackbox")
	}
	rng := rand.New(rand.NewSource(20261017))
	dim := func() int {
		if rng.Intn(16) == 0 {
			return rng.Intn(3) // 0, 1, 2: the empty and degenerate edges
		}
		return 1 + int(math.Exp(rng.Float64()*math.Log(8192)))
	}
	elemSizes := []int{4, 8}
	for i := range models {
		g := &models[i]
		for trial := 0; trial < 2000; trial++ {
			m, n, k := dim(), dim(), dim()
			es := elemSizes[rng.Intn(len(elemSizes))]
			iters := rng.Intn(5)
			if rng.Intn(2) == 0 {
				iters = rng.Intn(257)
			}
			beta0 := rng.Intn(2) == 0

			gemm := g.GemmBreakdown(es, m, n, k, beta0, iters)
			gemv := g.GemvBreakdown(es, m, n, beta0, iters)
			var gemmSec, gemvSec [3]float64
			for _, s := range xfer.Strategies {
				gemmSec[s] = g.Seconds(gemm, s)
				gemvSec[s] = g.Seconds(gemv, s)
				if want := g.GemmSeconds(s, es, m, n, k, beta0, iters); math.Float64bits(gemmSec[s]) != math.Float64bits(want) {
					t.Fatalf("%s gemm %v es=%d %dx%dx%d i=%d: breakdown %v, GemmSeconds %v",
						names[i], s, es, m, n, k, iters, gemmSec[s], want)
				}
				if want := g.GemvSeconds(s, es, m, n, beta0, iters); math.Float64bits(gemvSec[s]) != math.Float64bits(want) {
					t.Fatalf("%s gemv %v es=%d %dx%d i=%d: breakdown %v, GemvSeconds %v",
						names[i], s, es, m, n, iters, gemvSec[s], want)
				}
				if got, err := g.Time(gemm, s, "gemm", max(m, n, k)); err != nil || math.Float64bits(got) != math.Float64bits(gemmSec[s]) {
					t.Fatalf("%s gemm %v: Time = %v, %v without an injector, want %v", names[i], s, got, err, gemmSec[s])
				}
			}
			for _, c := range []struct {
				kernel string
				sec    [3]float64
			}{{"gemm", gemmSec}, {"gemv", gemvSec}} {
				once, always := c.sec[xfer.TransferOnce], c.sec[xfer.TransferAlways]
				if always < once {
					t.Fatalf("%s %s es=%d %dx%dx%d i=%d: Always %v < Once %v",
						names[i], c.kernel, es, m, n, k, iters, always, once)
				}
				if iters == 1 && math.Float64bits(always) != math.Float64bits(once) {
					t.Fatalf("%s %s es=%d %dx%dx%d: Always %v != Once %v at one iteration",
						names[i], c.kernel, es, m, n, k, always, once)
				}
			}
		}
	}
}
