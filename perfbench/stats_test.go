package main

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, tc := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v of 1..10 = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{3.5}, 99); got != 3.5 {
		t.Errorf("p99 of one sample = %v, want the sample", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestBeyondCountsTheTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{100, 99, 1}, {9000, 99, 90}, {10, 90, 1}, {1, 99, 0}, {0, 99, 0}} {
		if got := beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("beyond(%d, p%v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestLatencyIsTimedFromTheDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	// The generator sent 2 ms late and the reply took 3 ms: the request
	// waited 5 ms, and the generator was 2 ms behind.
	lat, lag := latencyFromDue(due, due.Add(2*time.Millisecond), due.Add(5*time.Millisecond))
	if lat != 5*time.Millisecond || lag != 2*time.Millisecond {
		t.Errorf("late send: latency %v lag %v, want 5ms and 2ms", lat, lag)
	}
	// A send that beat its due time (a closed loop has none) is not late.
	lat, lag = latencyFromDue(due, due.Add(-time.Millisecond), due.Add(time.Millisecond))
	if lat != time.Millisecond || lag != 0 {
		t.Errorf("early send: latency %v lag %v, want 1ms and 0", lat, lag)
	}
}

func TestScheduleIsFixedRate(t *testing.T) {
	start := time.Unix(0, 0)
	s := schedule{start: start, interval: time.Second / 600}
	if got := s.due(600).Sub(start); got < 999*time.Millisecond || got > time.Second {
		t.Errorf("request 600 at 600/s is due after %v, want about 1s", got)
	}
	if !s.due(0).Equal(start) {
		t.Error("the first request is due at the start")
	}
}

func TestGeomeanGivesEveryRateEqualWeight(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	// Doubling one case's rate moves the geomean by the same factor
	// whether that case is fast or slow.
	a := geomean([]float64{1, 100})
	if b, c := geomean([]float64{2, 100}), geomean([]float64{1, 200}); math.Abs(b-c) > 1e-9 || math.Abs(b/a-math.Sqrt2) > 1e-12 {
		t.Errorf("doubling either rate: %v and %v, want both %v", b, c, a*math.Sqrt2)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}} {
		if got := geomean(xs); got != 0 {
			t.Errorf("geomean(%v) = %v, want 0 for a missing rate", xs, got)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	if got := selfNs(10_000, 3_000); got != 7_000 {
		t.Errorf("selfNs(10us, 3us) = %d, want 7000", got)
	}
	if got := selfNs(10_000, 12_000); got != 0 {
		t.Errorf("an over-estimated child total must floor at 0, got %d", got)
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	r := ratio{num: 3, den: 4}
	if r.value() != 0.75 {
		t.Errorf("3/4 = %v", r.value())
	}
	if s := r.String(); !strings.Contains(s, "(3 of 4)") {
		t.Errorf("String() = %q, want the base in it", s)
	}
	if (ratio{}).value() != 0 {
		t.Error("an empty base must give 0, not NaN")
	}
}

func TestTracerRecordsAndNilIsOff(t *testing.T) {
	var off *tracer
	if id := off.record("x", 0, time.Now(), time.Now()); id != 0 || off.count() != 0 || off.named("x") != nil {
		t.Error("a nil tracer must record nothing")
	}
	tr := newTracer(true)
	parent := tr.begin("parent", 0)
	t0 := tr.epoch
	tr.record("child", parent, t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	tr.record("child", parent, t0.Add(4*time.Millisecond), t0.Add(5*time.Millisecond))
	tr.end(parent)
	if got := tr.totalNs("child"); got != 3e6 {
		t.Errorf("child total %d ns, want 3ms", got)
	}
	if d := tr.durationsMs("child"); len(d) != 2 || d[0] != 2 || d[1] != 1 {
		t.Errorf("child durations %v, want [2 1]", d)
	}
	if spans := tr.named("child"); spans[0].Parent != parent {
		t.Errorf("child parent %d, want %d", spans[0].Parent, parent)
	}
}

func TestAtNominalScalesTimesAndRates(t *testing.T) {
	raw := map[string]float64{"ops_per_s": 100, "p50_ms": 2, "setup_s": 1, "live_heap_mb": 8}
	// A host running at 0.8 of nominal speed: rates read low and times
	// high, by that factor.
	got := atNominal(raw, 0.8, nil)
	want := map[string]float64{"ops_per_s": 125, "p50_ms": 1.6, "setup_s": 0.8, "live_heap_mb": 8}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("%s at nominal speed = %v, want %v", k, got[k], w)
		}
	}
	if kept := atNominal(raw, 0.8, []string{"ops_per_s"}); kept["ops_per_s"] != 100 || math.Abs(kept["p50_ms"]-1.6) > 1e-12 {
		t.Errorf("a figure kept as measured was scaled: %v", kept)
	}
	if raw["p50_ms"] != 2 {
		t.Error("atNominal modified its input")
	}
}

func TestCalibratorSpeedIsTheMedianSliceOverNominal(t *testing.T) {
	var c calibrator
	n := calibNominal[kernelRef]
	c.rates[kernelRef] = []float64{0.5 * n, 2 * n, n}
	if got := c.speed(kernelRef); got != 1 {
		t.Errorf("speed of slices at 0.5, 2 and 1x nominal = %v, want the median, 1", got)
	}
	tk := newCalibrator().ticker()
	tk.tick() // too soon after the start: no slice
	if len(tk.c.rates[scalarRef]) != 0 || tk.wall != 0 {
		t.Fatalf("tick ran a slice before calibEvery passed")
	}
	tk.last = tk.last.Add(-calibEvery)
	tk.tick()
	for k := range numRefs {
		if r := tk.c.rates[k]; len(r) != 1 || r[0] <= 0 {
			t.Errorf("tick after calibEvery: %s loop rates %v, want one slice", k, r)
		}
	}
	if tk.wall < calibSlice {
		t.Errorf("a slice took %v, want at least %v", tk.wall, calibSlice)
	}
}

func TestOccupyStopWaitsForItsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	stop := occupy()
	time.Sleep(10 * time.Millisecond)
	stop()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after stop, %d before occupy", after, before)
	}
}
