package offload

import (
	"context"
	"math"
	"runtime"
	"sort"
	"strings"
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

// TestHysteresisRampSwitchesOncePerDirection: shape ramps that cross the
// offload threshold — including ramps whose raw comparison flaps near the
// crossing — must switch device at most once on the way up and at most
// once on the way down, at the dispatcher's fixed 10% margin.
func TestHysteresisRampSwitchesOncePerDirection(t *testing.T) {
	wobble := func(m int) float64 {
		if m%2 == 0 {
			return 6
		}
		return -6
	}
	cases := []struct {
		name     string
		cpu, gpu func(c advisor.Call) float64
		from, to int
		step     int
	}{
		{
			// Clean monotone crossing at m=100.
			name: "clean-crossing",
			cpu:  func(c advisor.Call) float64 { return float64(c.M) },
			gpu:  func(c advisor.Call) float64 { return 100 },
			from: 10, to: 400, step: 2,
		},
		{
			// The raw argmin flaps every step between m=94 and m=106;
			// the margin must ride straight through the noise.
			name: "noisy-crossing",
			cpu:  func(c advisor.Call) float64 { return float64(c.M) },
			gpu:  func(c advisor.Call) float64 { return 100 + wobble(c.M) },
			from: 40, to: 260, step: 1,
		},
		{
			// GPU favoured from the start: no crossing, no switches.
			name: "no-crossing",
			cpu:  func(c advisor.Call) float64 { return float64(c.M) * 2 },
			gpu:  func(c advisor.Call) float64 { return 1 },
			from: 10, to: 200, step: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New(Options{
				System:   mustSystem(t, "dawn"),
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
			// replay from the memo map in reverse order, which is exactly one
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

// TestSharedFirstSighting: a caller that arrives while the leader is
// still evaluating a shape blocks on the leader's entry, then returns the
// leader's verdict marked Cached, counted as one SharedHits, without a
// second evaluation.
func TestSharedFirstSighting(t *testing.T) {
	var evals atomic.Int64
	evaluating, release := make(chan struct{}), make(chan struct{})
	d := New(Options{
		System: mustSystem(t, "dawn"),
		Evaluate: func(sys systems.System, c advisor.Call) (float64, float64) {
			evals.Add(1)
			close(evaluating)
			<-release
			return advisor.Times(sys, c)
		},
	})
	c := gemmCall(96, 96, 96)
	decide := func(out chan<- Decision) {
		dec, err := d.Decide(context.Background(), c)
		if err != nil {
			t.Error(err)
		}
		out <- dec
	}
	leader, waiter := make(chan Decision), make(chan Decision)
	go decide(leader)
	<-evaluating
	go decide(waiter)
	waitBlockedInDecide(t)
	select {
	case dec := <-waiter:
		t.Fatalf("waiter returned %+v before the leader finished", dec)
	default:
	}
	close(release)
	first, shared := <-leader, <-waiter
	if got := evals.Load(); got != 1 {
		t.Fatalf("evaluations = %d, want exactly 1", got)
	}
	if first.Cached || !shared.Cached || shared.Device != first.Device {
		t.Fatalf("leader %+v, waiter %+v: want the waiter to share the leader's verdict", first, shared)
	}
	if st := d.Stats(); st.SharedHits != 1 || st.CacheHits != 0 || st.Decisions != 2 {
		t.Fatalf("stats %+v, want 1 shared hit, 0 cache hits, 2 decisions", st)
	}
}

// waitBlockedInDecide returns once some goroutine is parked on a channel
// receive directly inside Decide — a caller waiting on another caller's
// evaluation. It reads goroutine states, so it needs no sleeps.
func waitBlockedInDecide(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(stacks, "\n\n") {
			lines := strings.SplitN(g, "\n", 3)
			if len(lines) >= 2 && strings.Contains(lines[0], "[chan receive") &&
				strings.HasPrefix(lines[1], "repro/internal/offload.(*Dispatcher).Decide(") {
				return
			}
		}
		runtime.Gosched()
	}
	t.Fatal("no caller blocked in Decide waiting on a shared evaluation")
}

// TestResidencyLowersUSMThreshold: under Unified transfer, a resident
// working set skips the first-touch migration, so the GPU time drops and
// a shape that a cold placement keeps on the CPU can become offloadable.
func TestResidencyLowersUSMThreshold(t *testing.T) {
	sys := mustSystem(t, "isambard-ai")
	d := New(Options{System: sys})
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

// TestDecideAgreesWithAdvisor: with no incumbent verdict to hold, the
// dispatcher's verdict must be the advisor's verdict — the façade adds
// stability and memoization, not a different policy. Each shape gets a
// fresh dispatcher, so hysteresis never applies.
func TestDecideAgreesWithAdvisor(t *testing.T) {
	sys := mustSystem(t, "dawn")
	ctx := context.Background()
	for _, n := range []int{8, 32, 128, 512, 2048} {
		d := New(Options{System: sys})
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
	seen := map[Call]int{}
	for i, c := range calls {
		n := seen[c]
		seen[c] = n + 1
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

// countingDispatcher returns a dispatcher whose evaluations are
// counted in evals.
func countingDispatcher(t *testing.T, evals *atomic.Int64) *Dispatcher {
	return New(Options{
		System: mustSystem(t, "dawn"),
		Evaluate: func(sys systems.System, c advisor.Call) (float64, float64) {
			evals.Add(1)
			return advisor.Times(sys, c)
		},
	})
}

// TestShapeKeyDistinguishes: every field of the call identity is part of
// the memo key, so each one-field variant costs its own evaluation.
func TestShapeKeyDistinguishes(t *testing.T) {
	base := gemmCall(64, 32, 16)
	variants := []Call{
		base,
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

	var evals atomic.Int64
	d := countingDispatcher(t, &evals)
	for i, v := range variants {
		dec, err := d.Decide(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Cached || evals.Load() != int64(i+1) {
			t.Errorf("variant %d shared a verdict: cached=%v evaluations=%d", i, dec.Cached, evals.Load())
		}
	}
}

// TestCacheEviction: the memo map never holds more than memoBound entries.
// Overflowing it clears the map, so the first shape evaluates again.
func TestCacheEviction(t *testing.T) {
	var evals atomic.Int64
	d := countingDispatcher(t, &evals)
	ctx := context.Background()
	for i := 0; i <= memoBound; i++ {
		if _, err := d.Decide(ctx, gemmCall(8+i, 32, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(d.memo); got > memoBound {
		t.Fatalf("memo holds %d entries, want at most %d", got, memoBound)
	}
	if evals.Load() != memoBound+1 {
		t.Fatalf("distinct shapes must each evaluate once, got %d", evals.Load())
	}
	dec, err := d.Decide(ctx, gemmCall(8, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Cached || evals.Load() != memoBound+2 {
		t.Fatalf("first shape after overflow: cached=%v evaluations=%d, want a fresh evaluation", dec.Cached, evals.Load())
	}
}

// TestWarmDecideDoesNotAllocate: a memoized shape is answered without a heap
// allocation.
func TestWarmDecideDoesNotAllocate(t *testing.T) {
	d := New(Options{System: mustSystem(t, "dawn")})
	ctx := context.Background()
	c := gemmCall(128, 128, 128)
	if _, err := d.Decide(ctx, c); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.Decide(ctx, c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Decide made %v allocations, want 0", allocs)
	}
}
