package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim/xfer"
)

// Seeded inputs for cluster-serve. Every generator takes its own
// *rand.Rand, so the same seed gives the same keys, shapes and mix.

// thresholdKeys builds a keyspace of n distinct /v1/threshold requests:
// a system, a problem type, a precision, an iteration count and a
// max_dim drawn from [512, 4096], so a cache miss pays a sweep of
// hundreds to thousands of problem sizes.
func thresholdKeys(rng *rand.Rand, n int) []service.ThresholdRequest {
	syss := paperSystemNames()
	problems := core.AllProblems()
	seen := make(map[string]bool, n)
	keys := make([]service.ThresholdRequest, 0, n)
	for len(keys) < n {
		pt := problems[rng.Intn(len(problems))]
		req := service.ThresholdRequest{
			System:    syss[rng.Intn(len(syss))],
			Kernel:    pt.Kernel.String(),
			Problem:   pt.Name,
			Precision: []string{"f32", "f64"}[rng.Intn(2)],
			Config: service.SweepConfigRequest{
				MaxDim:     512 + rng.Intn(4096-512+1),
				Iterations: paperIterations[rng.Intn(len(paperIterations))],
			},
		}
		id := fmt.Sprintf("%+v", req)
		if seen[id] {
			continue
		}
		seen[id] = true
		keys = append(keys, req)
	}
	return keys
}

func paperSystemNames() []string {
	var names []string
	for _, s := range paperSystems() {
		names = append(names, s.Name)
	}
	return names
}

// zipfKeys draws count indices into a keyspace of size n, Zipf-distributed
// with exponent s: a few hot keys take most draws, a long tail misses.
func zipfKeys(rng *rand.Rand, s float64, n, count int) []int {
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	out := make([]int, count)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// callShape is one BLAS call in both its wire form and the advisor's
// typed form, so replies can be checked against an in-process reference.
type callShape struct {
	wire  service.CallRequest
	typed advisor.Call
}

// shapeSet builds n distinct call shapes from a small size grid: the
// bounded set /v1/dispatch batches draw from, so the dispatchers' shape
// caches warm up, and the pool advise batches draw from.
func shapeSet(rng *rand.Rand, n int) []callShape {
	sizes := []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	counts := []int{1, 8, 64}
	seen := map[advisor.Call]bool{}
	out := make([]callShape, 0, n)
	for len(out) < n {
		c := advisor.Call{
			Kernel:    core.KernelKind(rng.Intn(2)),
			M:         sizes[rng.Intn(len(sizes))],
			N:         sizes[rng.Intn(len(sizes))],
			Precision: core.Precision(rng.Intn(2)),
			Count:     counts[rng.Intn(len(counts))],
			Strategy:  xfer.Strategies[rng.Intn(len(xfer.Strategies))],
		}
		if c.Kernel == core.GEMM {
			c.K = sizes[rng.Intn(len(sizes))]
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		prec := "f32"
		if c.Precision == core.F64 {
			prec = "f64"
		}
		out = append(out, callShape{
			typed: c,
			wire: service.CallRequest{
				Kernel: c.Kernel.String(), M: c.M, N: c.N, K: c.K,
				Precision: prec, Count: c.Count, Movement: c.Strategy.String(),
			},
		})
	}
	return out
}

// reqKind is a request's endpoint.
type reqKind int

const (
	kindThreshold reqKind = iota
	kindAdvise
	kindDispatch
	numKinds
)

func (k reqKind) String() string {
	return [...]string{"threshold", "advise", "dispatch"}[k]
}

// request is one pre-generated request of the open loop.
type request struct {
	kind reqKind
	// key indexes the threshold keyspace; direct marks a threshold
	// request sent straight to a replica that does not own its shard.
	key    int
	direct bool
	// calls are the advise or dispatch batch, as indices into the shape set.
	calls  []int
	system string // dispatch only
}

// mix holds the traffic proportions of cluster-serve.
type mix struct {
	threshold, advise    float64 // the rest is dispatch
	directShare          float64 // of threshold requests
	zipfS                float64
	keyspace             int
	shapes               int
	dispatchBatch        int
	adviseMin, adviseMax int
}

var serveMix = mix{
	threshold: 0.70, advise: 0.15,
	directShare:   0.10,
	zipfS:         1.2,
	keyspace:      7680, // about 10x the ring's 3 x 256 cache entries
	shapes:        384,
	dispatchBatch: 64,
	adviseMin:     2, adviseMax: 8,
}

// requests draws count requests from the mix.
func (m mix) requests(rng *rand.Rand, count int) []request {
	keys := zipfKeys(rng, m.zipfS, m.keyspace, count)
	syss := paperSystemNames()
	out := make([]request, count)
	for i := range out {
		u := rng.Float64()
		switch {
		case u < m.threshold:
			out[i] = request{kind: kindThreshold, key: keys[i], direct: rng.Float64() < m.directShare}
		case u < m.threshold+m.advise:
			n := m.adviseMin + rng.Intn(m.adviseMax-m.adviseMin+1)
			out[i] = request{kind: kindAdvise, calls: drawCalls(rng, n, m.shapes)}
		default:
			out[i] = request{kind: kindDispatch, calls: drawCalls(rng, m.dispatchBatch, m.shapes), system: syss[rng.Intn(len(syss))]}
		}
	}
	return out
}

func drawCalls(rng *rand.Rand, n, shapes int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(shapes)
	}
	return out
}

// schedule is the open loop's fixed-rate timetable: request i is due at
// start + i/rate, whether or not earlier requests have finished.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}
