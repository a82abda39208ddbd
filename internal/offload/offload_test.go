package offload

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

func mustSystem(t *testing.T, name string) systems.System {
	t.Helper()
	sys, err := systems.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func gemmCall(m, n, k int) Call {
	return Call{Call: advisor.Call{
		Kernel: core.GEMM, M: m, N: n, K: k,
		Precision: core.F64, Count: 1, Strategy: xfer.TransferOnce,
	}}
}

// scriptedEvaluate builds an EvaluateFunc from pure shape functions, so
// hysteresis tests control the exact crossing behaviour.
func scriptedEvaluate(cpu, gpu func(c advisor.Call) float64) EvaluateFunc {
	return func(_ systems.System, c advisor.Call) (float64, float64) {
		return cpu(c), gpu(c)
	}
}

// TestHysteresisRampSwitchesOncePerDirection is the issue's table test:
// shape ramps that cross the offload threshold — including ramps whose
// raw comparison flaps near the crossing — must switch device at most
// once on the way up and at most once on the way down.
func TestHysteresisRampSwitchesOncePerDirection(t *testing.T) {
	wobble := func(m int) float64 {
		if m%2 == 0 {
			return 6
		}
		return -6
	}
	cases := []struct {
		name     string
		margin   float64
		cpu, gpu func(c advisor.Call) float64
		from, to int
		step     int
	}{
		{
			// Clean monotone crossing at m=100.
			name:   "clean-crossing",
			margin: 0.10,
			cpu:    func(c advisor.Call) float64 { return float64(c.M) },
			gpu:    func(c advisor.Call) float64 { return 100 },
			from:   10, to: 400, step: 2,
		},
		{
			// The raw argmin flaps every step between m=94 and m=106;
			// a 15% margin must ride straight through the noise.
			name:   "noisy-crossing",
			margin: 0.15,
			cpu:    func(c advisor.Call) float64 { return float64(c.M) },
			gpu:    func(c advisor.Call) float64 { return 100 + wobble(c.M) },
			from:   40, to: 260, step: 1,
		},
		{
			// GPU favoured from the start: no crossing, no switches.
			name:   "no-crossing",
			margin: 0.10,
			cpu:    func(c advisor.Call) float64 { return float64(c.M) * 2 },
			gpu:    func(c advisor.Call) float64 { return 1 },
			from:   10, to: 200, step: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New(Options{
				System:   mustSystem(t, "dawn"),
				Margin:   tc.margin,
				Evaluate: scriptedEvaluate(tc.cpu, tc.gpu),
			})
			ctx := context.Background()
			countSwitches := func(ms []int) int {
				var prev Device
				switches := 0
				for _, m := range ms {
					dec, err := d.Decide(ctx, gemmCall(m, 64, 64))
					if err != nil {
						t.Fatal(err)
					}
					if prev != 0 && dec.Device != prev {
						switches++
					}
					prev = dec.Device
				}
				return switches
			}
			var up, down []int
			for m := tc.from; m <= tc.to; m += tc.step {
				up = append(up, m)
			}
			for m := tc.to; m >= tc.from; m -= tc.step {
				down = append(down, m)
			}
			if got := countSwitches(up); got > 1 {
				t.Errorf("upward ramp switched %d times, want at most 1", got)
			}
			// The downward ramp revisits memoized shapes; their verdicts
			// replay from the cache in reverse order, which is exactly one
			// switch back if the upward ramp switched once.
			if got := countSwitches(down); got > 1 {
				t.Errorf("downward ramp switched %d times, want at most 1", got)
			}
		})
	}
}

// TestHysteresisHoldsNearThreshold pins the hold mechanics: with the GPU
// incumbent and a raw CPU preference inside the margin, the verdict is
// held (and marked Held); outside the margin it switches.
func TestHysteresisHoldsNearThreshold(t *testing.T) {
	gpuT := 100.0
	d := New(Options{
		System: mustSystem(t, "dawn"),
		Margin: 0.10,
		Evaluate: scriptedEvaluate(
			func(c advisor.Call) float64 { return float64(c.M) },
			func(c advisor.Call) float64 { return gpuT },
		),
	})
	ctx := context.Background()

	dec, err := d.Decide(ctx, gemmCall(200, 8, 8)) // cpu=200 vs gpu=100: GPU
	if err != nil || dec.Device != GPU || dec.Held {
		t.Fatalf("want a clean GPU verdict, got %+v err %v", dec, err)
	}
	// cpu=95 beats gpu=100 raw, but not by the 10% margin: held on GPU.
	dec, err = d.Decide(ctx, gemmCall(95, 8, 8))
	if err != nil || dec.Device != GPU || !dec.Held {
		t.Fatalf("want a held GPU verdict, got %+v err %v", dec, err)
	}
	// cpu=50 wins by far more than the margin: switches to CPU.
	dec, err = d.Decide(ctx, gemmCall(50, 8, 8))
	if err != nil || dec.Device != CPU || dec.Held {
		t.Fatalf("want a switch to CPU, got %+v err %v", dec, err)
	}
	st := d.Stats()
	if st.Holds != 1 || st.Switches != 1 {
		t.Fatalf("stats holds=%d switches=%d, want 1 and 1", st.Holds, st.Switches)
	}
}

// TestMemoization: replaying the same shapes must evaluate the models
// once per distinct shape, answer the replays from the cache, and agree
// with the first verdicts.
func TestMemoization(t *testing.T) {
	var evals atomic.Int64
	d := New(Options{
		System: mustSystem(t, "dawn"),
		Evaluate: func(sys systems.System, c advisor.Call) (float64, float64) {
			evals.Add(1)
			return advisor.Times(sys, c)
		},
	})
	ctx := context.Background()
	shapes := make([]Call, 0, 100)
	for i := 0; i < 100; i++ {
		shapes = append(shapes, gemmCall(16+8*i, 64, 64))
	}
	first := make([]Decision, len(shapes))
	for i, c := range shapes {
		dec, err := d.Decide(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Cached {
			t.Fatalf("shape %d cached on first sight", i)
		}
		first[i] = dec
	}
	for round := 0; round < 5; round++ {
		for i, c := range shapes {
			dec, err := d.Decide(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			if !dec.Cached {
				t.Fatalf("round %d shape %d missed the cache", round, i)
			}
			if dec.Device != first[i].Device {
				t.Fatalf("round %d shape %d verdict changed: %v -> %v", round, i, first[i].Device, dec.Device)
			}
		}
	}
	if got := evals.Load(); got != int64(len(shapes)) {
		t.Fatalf("evaluations = %d, want %d (one per distinct shape)", got, len(shapes))
	}
	st := d.Stats()
	if st.CacheHits != uint64(5*len(shapes)) {
		t.Fatalf("cache hits = %d, want %d", st.CacheHits, 5*len(shapes))
	}
	if st.BloomNegatives == 0 {
		t.Fatal("cold shapes should register bloom negatives")
	}
}

// TestConcurrentSingleflight: N goroutines dispatching the same small
// shape set concurrently must evaluate each distinct shape exactly once —
// either via the cache or by joining an in-flight evaluation.
func TestConcurrentSingleflight(t *testing.T) {
	var evals atomic.Int64
	d := New(Options{
		System: mustSystem(t, "dawn"),
		Evaluate: func(sys systems.System, c advisor.Call) (float64, float64) {
			evals.Add(1)
			time.Sleep(time.Millisecond) // widen the in-flight window
			return advisor.Times(sys, c)
		},
	})
	const workers, distinct = 16, 12
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < distinct; i++ {
				if _, err := d.Decide(context.Background(), gemmCall(32+16*i, 32, 32)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := evals.Load(); got != distinct {
		t.Fatalf("evaluations = %d, want %d (concurrent callers must share)", got, distinct)
	}
}

// TestSingleflightLateCallerUsesCache forces the window between Decide's
// cache miss and computeShared's flight lookup: the caller misses the
// cache while the leader is still evaluating, and reaches computeShared
// only after the leader has stored its verdict and retired its flight.
// The late caller must answer from the cache, not evaluate a second time.
func TestSingleflightLateCallerUsesCache(t *testing.T) {
	var evals atomic.Int64
	evaluating, release := make(chan struct{}), make(chan struct{})
	d := New(Options{
		System: mustSystem(t, "dawn"),
		Evaluate: func(sys systems.System, c advisor.Call) (float64, float64) {
			if evals.Add(1) == 1 {
				close(evaluating)
				<-release
			}
			return advisor.Times(sys, c)
		},
	})
	c := gemmCall(96, 96, 96)
	key := shapeKey(c)
	leader := make(chan Decision)
	go func() {
		dec, err := d.Decide(context.Background(), c)
		if err != nil {
			t.Error(err)
		}
		leader <- dec
	}()
	<-evaluating
	if _, ok := d.cache.get(key); ok {
		t.Fatal("verdict cached while the leader is still evaluating")
	}
	close(release)
	first := <-leader
	late := d.computeShared(key, c)
	if got := evals.Load(); got != 1 {
		t.Fatalf("evaluations = %d, want exactly 1", got)
	}
	if !late.Cached || late.Device != first.Device {
		t.Fatalf("late caller got %+v, want the leader's cached verdict %+v", late, first)
	}
}

// TestResidencyLowersUSMThreshold: under Unified transfer, a resident
// working set skips the first-touch migration, so the GPU time drops and
// a shape that a cold placement keeps on the CPU can become offloadable.
func TestResidencyLowersUSMThreshold(t *testing.T) {
	sys := mustSystem(t, "isambard-ai")
	d := New(Options{System: sys, Margin: 1e-9})
	ctx := context.Background()

	usmCall := func(n int, resident bool) Call {
		return Call{
			Call: advisor.Call{Kernel: core.GEMM, M: n, N: n, K: n,
				Precision: core.F64, Count: 1, Strategy: xfer.Unified},
			Resident: resident,
		}
	}
	for _, n := range []int{64, 256, 1024} {
		cold, err := d.Decide(ctx, usmCall(n, false))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := d.Decide(ctx, usmCall(n, true))
		if err != nil {
			t.Fatal(err)
		}
		if warm.GPUSeconds >= cold.GPUSeconds {
			t.Errorf("n=%d: resident GPU time %g should undercut cold %g", n, warm.GPUSeconds, cold.GPUSeconds)
		}
		if math.Abs(cold.CPUSeconds-warm.CPUSeconds) > 0 {
			t.Errorf("n=%d: residency must not touch the CPU time", n)
		}
	}

	// Residency is a USM concept: explicit-copy strategies ignore it.
	onceCold, err := d.Decide(ctx, gemmCall(128, 128, 128))
	if err != nil {
		t.Fatal(err)
	}
	resident := gemmCall(128, 128, 128)
	resident.Resident = true
	onceWarm, err := d.Decide(ctx, resident)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(onceCold.GPUSeconds-onceWarm.GPUSeconds) > 0 {
		t.Fatal("Resident must be a no-op for TransferOnce")
	}
}

// TestDecideAgreesWithAdvisor: away from the hysteresis band, the
// dispatcher's verdict must be the advisor's verdict — the façade adds
// stability and caching, not a different policy.
func TestDecideAgreesWithAdvisor(t *testing.T) {
	sys := mustSystem(t, "dawn")
	d := New(Options{System: sys, Margin: 1e-9})
	ctx := context.Background()
	for _, n := range []int{8, 32, 128, 512, 2048} {
		c := advisor.Call{Kernel: core.GEMM, M: n, N: n, K: n,
			Precision: core.F64, Count: 8, Strategy: xfer.TransferOnce}
		want, err := advisor.Advise(sys, c)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := d.Decide(ctx, Call{Call: c})
		if err != nil {
			t.Fatal(err)
		}
		wantDev := CPU
		if want.Offload {
			wantDev = GPU
		}
		if dec.Device != wantDev {
			t.Errorf("n=%d: dispatcher says %v, advisor says offload=%v", n, dec.Device, want.Offload)
		}
	}
}

// TestDecideContextCancelled: a cancelled context returns immediately
// with its error and records no decision.
func TestDecideContextCancelled(t *testing.T) {
	d := New(Options{System: mustSystem(t, "dawn")})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Decide(ctx, gemmCall(64, 64, 64)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := d.Stats(); st.Decisions != 0 {
		t.Fatalf("cancelled call recorded a decision: %+v", st)
	}
}

// TestDecideValidates: malformed calls fail loudly instead of poisoning
// the cache.
func TestDecideValidates(t *testing.T) {
	d := New(Options{System: mustSystem(t, "dawn")})
	bad := gemmCall(0, 64, 64)
	if _, err := d.Decide(context.Background(), bad); err == nil {
		t.Fatal("m=0 should be rejected")
	}
}

// TestCachedDecisionLatency: across a 1k-call batch of previously seen
// shapes every decision is a cache hit, and a hit costs a fraction of
// an uncached decision of the same shape. Hits and misses are timed
// interleaved on the same box, so host speed and load cancel out of the
// ratio; the absolute p50/p99 are logged, not asserted (wall-clock
// bounds belong in blob-bench and perfbench).
func TestCachedDecisionLatency(t *testing.T) {
	sys := mustSystem(t, "dawn")
	d := New(Options{System: sys})
	ctx := context.Background()
	calls := make([]Call, 0, 1000)
	for i := 0; i < 1000; i++ {
		c := gemmCall(8+2*(i%500), 64, 64)
		if i%2 == 1 {
			c.Call.Kernel, c.Call.K = core.GEMV, 0
		}
		calls = append(calls, c)
	}
	for _, c := range calls { // warm every shape
		if _, err := d.Decide(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	// Each call's miss runs on a cold dispatcher that has not seen its
	// shape yet: the n-th repeat of a shape goes to the n-th cold one.
	var cold []*Dispatcher
	coldFor := make([]*Dispatcher, len(calls))
	seen := map[uint64]int{}
	for i, c := range calls {
		n := seen[shapeKey(c)]
		seen[shapeKey(c)] = n + 1
		if n == len(cold) {
			cold = append(cold, New(Options{System: sys}))
		}
		coldFor[i] = cold[n]
	}
	decide := func(d *Dispatcher, c Call, wantCached bool) time.Duration {
		began := time.Now()
		dec, err := d.Decide(ctx, c)
		took := time.Since(began)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Cached != wantCached {
			t.Fatalf("%+v: Cached = %v, want %v", c, dec.Cached, wantCached)
		}
		return took
	}
	hit := make([]time.Duration, 0, len(calls))
	miss := make([]time.Duration, 0, len(calls))
	for i, c := range calls {
		if i%2 == 0 {
			hit = append(hit, decide(d, c, true))
			miss = append(miss, decide(coldFor[i], c, false))
		} else {
			miss = append(miss, decide(coldFor[i], c, false))
			hit = append(hit, decide(d, c, true))
		}
	}
	pct := func(lat []time.Duration, q int) time.Duration {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)*q/100]
	}
	hitP50, hitP99 := pct(hit, 50), pct(hit, 99)
	missP50, missP99 := pct(miss, 50), pct(miss, 99)
	ratio := float64(hitP50) / float64(missP50)
	t.Logf("cached p50 %s p99 %s; uncached p50 %s p99 %s; p50 ratio %.3f",
		hitP50, hitP99, missP50, missP99, ratio)
	if ratio > 0.5 {
		t.Fatalf("cached decision p50 %s is %.2fx the uncached p50 %s, want <= 0.5x",
			hitP50, ratio, missP50)
	}
}

// TestShapeKeyDistinguishes: every field of the call identity must feed
// the key.
func TestShapeKeyDistinguishes(t *testing.T) {
	base := gemmCall(64, 32, 16)
	variants := []Call{
		gemmCall(65, 32, 16),
		gemmCall(64, 33, 16),
		gemmCall(64, 32, 17),
	}
	c := base
	c.Count = 2
	variants = append(variants, c)
	c = base
	c.Precision = core.F32
	variants = append(variants, c)
	c = base
	c.Strategy = xfer.Unified
	variants = append(variants, c)
	c = base
	c.Resident = true
	variants = append(variants, c)
	c = base
	c.Call.Kernel, c.Call.K = core.GEMV, 0
	variants = append(variants, c)

	seen := map[uint64]bool{shapeKey(base): true}
	for i, v := range variants {
		k := shapeKey(v)
		if seen[k] {
			t.Errorf("variant %d collides", i)
		}
		seen[k] = true
	}
}

// TestCacheEviction: overflowing a tiny cache evicts rather than grows,
// and evicted shapes simply re-evaluate.
func TestCacheEviction(t *testing.T) {
	var evals atomic.Int64
	d := New(Options{
		System:       mustSystem(t, "dawn"),
		CacheEntries: 256, // the minimum
		Evaluate: func(sys systems.System, c advisor.Call) (float64, float64) {
			evals.Add(1)
			return advisor.Times(sys, c)
		},
	})
	ctx := context.Background()
	for i := 0; i < 4096; i++ {
		if _, err := d.Decide(ctx, gemmCall(8+i, 32, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if evals.Load() != 4096 {
		t.Fatalf("distinct shapes must each evaluate once, got %d", evals.Load())
	}
	// Replay: most are evicted (256-entry cache, 4096 shapes) and
	// re-evaluate without error; some tail shapes may still hit.
	for i := 4000; i < 4096; i++ {
		if _, err := d.Decide(ctx, gemmCall(8+i, 32, 32)); err != nil {
			t.Fatal(err)
		}
	}
}
