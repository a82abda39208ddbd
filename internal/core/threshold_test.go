package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

func dims(n int) Dims { return Dims{M: n, N: n, K: n} }

func TestThresholdSimpleCrossover(t *testing.T) {
	var det ThresholdDetector
	// CPU wins below 5, GPU from 5 on.
	for n := 1; n <= 10; n++ {
		det.Observe(dims(n), n >= 5)
	}
	d, ok := det.Threshold()
	if !ok || d.M != 5 {
		t.Fatalf("threshold = %v %v, want {5,5,5}", d, ok)
	}
}

func TestThresholdNeverWins(t *testing.T) {
	var det ThresholdDetector
	for n := 1; n <= 10; n++ {
		det.Observe(dims(n), false)
	}
	if _, ok := det.Threshold(); ok {
		t.Fatal("no GPU win should mean no threshold")
	}
}

func TestThresholdAlwaysWins(t *testing.T) {
	var det ThresholdDetector
	for n := 1; n <= 10; n++ {
		det.Observe(dims(n), true)
	}
	d, ok := det.Threshold()
	if !ok || d.M != 1 {
		t.Fatalf("threshold = %v %v, want {1,1,1}", d, ok)
	}
}

// A single momentary GPU win must not arm a threshold (two-sample
// smoothing, §III-D).
func TestThresholdIgnoresMomentaryWin(t *testing.T) {
	var det ThresholdDetector
	wins := []bool{false, false, true, false, false, false, false}
	for i, w := range wins {
		det.Observe(dims(i+1), w)
	}
	if _, ok := det.Threshold(); ok {
		t.Fatal("a 1-sample win streak must not produce a threshold")
	}
}

// A later CPU win invalidates the candidate and the detector re-arms
// ("monitors ... all subsequent problem sizes").
func TestThresholdInvalidatedAndRearmed(t *testing.T) {
	var det ThresholdDetector
	wins := []bool{false, true, true, true, false, true, true, true}
	for i, w := range wins {
		det.Observe(dims(i+1), w)
	}
	d, ok := det.Threshold()
	if !ok || d.M != 6 {
		t.Fatalf("threshold = %v %v, want re-armed {6,6,6}", d, ok)
	}
}

func TestThresholdInvalidatedAtEnd(t *testing.T) {
	var det ThresholdDetector
	wins := []bool{true, true, true, true, false}
	for i, w := range wins {
		det.Observe(dims(i+1), w)
	}
	if _, ok := det.Threshold(); ok {
		t.Fatal("CPU winning the final sample must invalidate the threshold")
	}
}

// A winning streak of exactly one at the very end does not qualify.
func TestThresholdTrailingSingleWin(t *testing.T) {
	var det ThresholdDetector
	wins := []bool{false, false, false, true}
	for i, w := range wins {
		det.Observe(dims(i+1), w)
	}
	if _, ok := det.Threshold(); ok {
		t.Fatal("single trailing win must not produce a threshold")
	}
	// But two trailing wins do.
	det = ThresholdDetector{}
	wins = []bool{false, false, true, true}
	for i, w := range wins {
		det.Observe(dims(i+1), w)
	}
	d, ok := det.Threshold()
	if !ok || d.M != 3 {
		t.Fatalf("threshold = %v %v, want {3,3,3}", d, ok)
	}
}

func TestThresholdStreakStartReported(t *testing.T) {
	// The threshold is the FIRST size of the final winning streak, even
	// though confirmation only arrives at the second.
	var det ThresholdDetector
	wins := []bool{false, true, true, true}
	for i, w := range wins {
		det.Observe(dims(i+1), w)
	}
	d, ok := det.Threshold()
	if !ok || d.M != 2 {
		t.Fatalf("threshold = %v %v, want streak start {2,2,2}", d, ok)
	}
}

func TestObserveTimesComparison(t *testing.T) {
	var det ThresholdDetector
	det.ObserveTimes(dims(1), 1.0, 2.0) // CPU faster
	det.ObserveTimes(dims(2), 2.0, 1.0) // GPU faster
	det.ObserveTimes(dims(3), 2.0, 1.0)
	d, ok := det.Threshold()
	if !ok || d.M != 2 {
		t.Fatalf("threshold = %v %v", d, ok)
	}
	if det.Samples() != 3 {
		t.Fatalf("samples = %d", det.Samples())
	}
}

func TestDetectThresholdHelper(t *testing.T) {
	ds := []Dims{dims(1), dims(2), dims(3), dims(4)}
	cpu := []float64{1, 1, 3, 3}
	gpu := []float64{2, 2, 1, 1}
	d, ok := DetectThreshold(ds, cpu, gpu)
	if !ok || d.M != 3 {
		t.Fatalf("DetectThreshold = %v %v", d, ok)
	}
}

// Property: monotone outcomes (CPU wins up to some c, GPU wins after)
// always detect exactly c+1, for any crossover point that leaves at least
// two winning samples.
func TestThresholdMonotoneProperty(t *testing.T) {
	f := func(cross uint8) bool {
		c := int(cross%20) + 1 // CPU wins sizes 1..c
		total := c + 2         // at least two GPU wins after
		var det ThresholdDetector
		for n := 1; n <= total; n++ {
			det.Observe(dims(n), n > c)
		}
		d, ok := det.Threshold()
		return ok && d.M == c+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property (§III-D): over seeded random CPU/GPU series that mix a
// crossover with momentary GPU wins before it, momentary CPU wins after
// it and exact ties (which the CPU keeps), the detector reports t exactly
// when t is the offload threshold by definition: the GPU wins at t and at
// every larger size, it does not win at t-1, and at least two samples
// confirm the win (t and the one after it). When no size qualifies it
// reports none.
func TestThresholdDefinitionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for series := 0; series < 2000; series++ {
		n := 1 + r.Intn(24)
		cross := r.Intn(n + 1)
		cpu, gpu := make([]float64, n), make([]float64, n)
		for i := range cpu {
			cpu[i] = 1 + r.Float64()
			win := i >= cross
			if r.Intn(5) == 0 {
				win = !win
			}
			switch {
			case r.Intn(8) == 0:
				gpu[i] = cpu[i]
			case win:
				gpu[i] = cpu[i] * (0.5 + 0.49*r.Float64())
			default:
				gpu[i] = cpu[i] * (1.01 + r.Float64())
			}
		}
		gpuWins := func(i int) bool { return gpu[i] < cpu[i] }
		// isThreshold is the definition, checked by brute force.
		isThreshold := func(th int) bool {
			if n-th < 2 || (th > 0 && gpuWins(th-1)) {
				return false
			}
			for i := th; i < n; i++ {
				if !gpuWins(i) {
					return false
				}
			}
			return true
		}
		var det ThresholdDetector
		for i := range cpu {
			det.ObserveTimes(dims(i+1), cpu[i], gpu[i])
		}
		d, ok := det.Threshold()
		if ok {
			if !isThreshold(d.M - 1) {
				t.Fatalf("series %d cpu=%v gpu=%v: reported threshold %v does not satisfy §III-D", series, cpu, gpu, d)
			}
			continue
		}
		for th := 0; th < n; th++ {
			if isThreshold(th) {
				t.Fatalf("series %d cpu=%v gpu=%v: size %d is a threshold, detector reported none", series, cpu, gpu, th+1)
			}
		}
	}
}

func TestDimsString(t *testing.T) {
	if got := (Dims{M: 1, N: 2, K: 3}).String(); got != "{1, 2, 3}" {
		t.Fatalf("gemm dims: %q", got)
	}
	if got := (Dims{M: 4, N: 5}).String(); got != "{4, 5}" {
		t.Fatalf("gemv dims: %q", got)
	}
}

func TestThresholdString(t *testing.T) {
	if got := (Threshold{}).String(); got != "—" {
		t.Fatalf("absent threshold: %q", got)
	}
	th := Threshold{Dims: Dims{M: 7, N: 7, K: 7}, Found: true}
	if got := th.String(); got != "{7, 7, 7}" {
		t.Fatalf("present threshold: %q", got)
	}
}

// Property (Tables III–VI): Transfer-Always moves at least the bytes of
// Transfer-Once at every size, so its offload threshold can never come
// earlier in the sweep: threshold(Always) ≥ threshold(Once) in sweep
// order, or Always finds none. At one iteration both strategies move the
// same bytes and the thresholds are equal. Checked for every problem type
// and precision over seeded random perturbations of the paper's systems,
// in both timing-model modes.
func TestStrategyThresholdRelation(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	scale := func(v *float64) { *v *= math.Exp((2*r.Float64() - 1) * math.Log(4)) }
	problems := append(append([]ProblemType(nil), GemmProblems...), GemvProblems...)
	for round := 0; round < 4; round++ {
		for _, sys := range systems.All() {
			if round > 0 {
				for _, v := range []*float64{
					&sys.CPU.CPU.FreqGHz, &sys.CPU.CPU.MemBWGBs, &sys.CPU.CPU.CacheBWGBs,
					&sys.GPU.GPU.FP32GFLOPS, &sys.GPU.GPU.FP64GFLOPS, &sys.GPU.GPU.HBMGBs,
					&sys.GPU.GPU.LaunchLatencyUS, &sys.GPU.Link.BWGBs, &sys.GPU.Link.LatencyUS,
				} {
					scale(v)
				}
			}
			cfg := Config{MaxDim: 2048, Step: 4, Model: ModelKind(round % 2)}
			for _, pt := range problems {
				for _, prec := range []Precision{F32, F64} {
					for _, iters := range []int{1, 8, 32, 128} {
						cfg.Iterations = iters
						ser, err := RunProblem(context.Background(), sys, pt, prec, cfg)
						if err != nil {
							t.Fatal(err)
						}
						once, always := ser.Thresholds[xfer.TransferOnce], ser.Thresholds[xfer.TransferAlways]
						where := fmt.Sprintf("round %d %s %s %s i=%d", round, sys.Name, pt.Name, ser.KernelName(), iters)
						if iters == 1 && once != always {
							t.Fatalf("%s: Once %v != Always %v at one iteration", where, once, always)
						}
						if always.Found && (!once.Found || sweepIndex(ser, always.Dims) < sweepIndex(ser, once.Dims)) {
							t.Fatalf("%s: Always threshold %v comes before Once threshold %v", where, always, once)
						}
					}
				}
			}
		}
	}
}

// sweepIndex is the position of d among the series' samples.
func sweepIndex(ser *Series, d Dims) int {
	for i, s := range ser.Samples {
		if s.Dims == d {
			return i
		}
	}
	panic(fmt.Sprintf("threshold %v is not a sampled size", d))
}
