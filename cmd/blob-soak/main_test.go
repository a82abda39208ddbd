package main

import (
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/pkg/blobclient"
)

// fastShots is a healthy run's fast tier: cache hits answered in 1 ms.
func fastShots(n int) []shot {
	shots := make([]shot, n)
	for i := range shots {
		shots[i] = shot{status: http.StatusOK, cached: true, latency: time.Millisecond}
	}
	return shots
}

func newResult() ProfileResult {
	return ProfileResult{Sheds: map[string]int{}, Statuses: map[string]int{}, Pass: true}
}

// TestScoreKeepsAbandonedOutOfFastTier: a slow run completes ~100 fast
// requests and ~3 abandoned 503s that waited most of the phase in the
// queue. Those are queue waits, not immediate answers, so they must not
// set the fast-tier p99, but they still count as sheds.
func TestScoreKeepsAbandonedOutOfFastTier(t *testing.T) {
	shots := fastShots(100)
	for i := 0; i < 3; i++ {
		shots = append(shots, shot{status: http.StatusServiceUnavailable, reason: "abandoned", latency: 1900 * time.Millisecond})
	}
	shots = append(shots, shot{status: http.StatusTooManyRequests, reason: "queue_full", latency: 2 * time.Millisecond})
	res := newResult()
	score(&res, shots, true)
	if !res.Pass {
		t.Fatalf("healthy run failed: %v", res.Violations)
	}
	if res.FastP99Ms > 2 {
		t.Fatalf("fast-tier p99 %.1f ms: abandoned queue waits leaked into it", res.FastP99Ms)
	}
	if res.Sheds["abandoned"] != 3 || res.Sheds["queue_full"] != 1 {
		t.Fatalf("sheds = %v, want 3 abandoned and 1 queue_full", res.Sheds)
	}
	if want := 4.0 / 104; math.Abs(res.ShedRate-want) > 1e-12 {
		t.Fatalf("shed rate %v, want %v", res.ShedRate, want)
	}
}

// TestScoreFailsSlowImmediateSheds: every other 429/503 is an immediate
// answer and stays in the fast tier, so slow ones still fail the SLO.
func TestScoreFailsSlowImmediateSheds(t *testing.T) {
	shots := fastShots(100)
	for i := 0; i < 3; i++ {
		shots = append(shots, shot{status: http.StatusServiceUnavailable, reason: "queue_full", latency: 1900 * time.Millisecond})
	}
	res := newResult()
	score(&res, shots, true)
	if res.Pass || len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "fast-tier p99") {
		t.Fatalf("pass=%v violations=%v, want one fast-tier p99 violation", res.Pass, res.Violations)
	}
}

// TestScoreFailsKnownBadRuns: each known-bad shot list fails score or
// scoreDispatch with exactly its own violation.
func TestScoreFailsKnownBadRuns(t *testing.T) {
	shed := func(n int, reason string) []shot {
		shots := make([]shot, n)
		for i := range shots {
			shots[i] = shot{status: http.StatusTooManyRequests, reason: reason, latency: time.Millisecond}
		}
		return shots
	}
	batches := func(n, decisions, hits int) []shot {
		shots := fastShots(n)
		for i := range shots {
			shots[i].cached, shots[i].decisions, shots[i].hits = false, decisions, hits
		}
		return shots
	}
	cases := []struct {
		name     string
		shots    []shot
		dispatch bool
		want     []string
	}{
		{"unknown shed reason", append(fastShots(100), shed(2, "mystery")...), false,
			[]string{`2 sheds with unknown reason "mystery"`}},
		{"total collapse", shed(50, "queue_full"), false,
			[]string{"no request completed: total collapse, not load shedding"}},
		{"no routing decisions", fastShots(10), true,
			[]string{"dispatch profile completed no routing decisions"}},
		{"hit rate below floor", batches(10, 64, 31), true,
			[]string{"dispatch cache hit rate 0.484 below floor 0.50"}},
		{"hit rate at floor", batches(10, 64, 32), true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := newResult()
			if tc.dispatch {
				scoreDispatch(&res, tc.shots)
			} else {
				score(&res, tc.shots, true)
			}
			if res.Pass != (tc.want == nil) || !slices.Equal(res.Violations, tc.want) {
				t.Fatalf("pass=%v violations=%q, want %q", res.Pass, res.Violations, tc.want)
			}
		})
	}
}

// cleanClusterRuns is a cluster run that served every dim of its
// reference, byte for byte, within the latency budget, with goroutines
// settled exactly at the tolerance edge.
func cleanClusterRuns() (run, ref *clusterRun) {
	run = &clusterRun{ProfileResult: newResult(), maxLatency: time.Second,
		verdicts: map[int]string{24: `{"a":1}`, 26: `{"a":2}`, 28: `{"a":3}`}}
	run.Name, run.OK, run.MaxLatencyMs = "cluster", 3, 1000
	run.GoroutineBaseline, run.GoroutineAfter = 10, 10+goroutineTolerance
	ref = &clusterRun{ProfileResult: newResult(),
		verdicts: map[int]string{24: `{"a":1}`, 26: `{"a":2}`, 28: `{"a":3}`}}
	ref.OK = 3
	return run, ref
}

func TestScoreClusterPassesCleanRun(t *testing.T) {
	run, ref := cleanClusterRuns()
	if !scoreCluster(run, ref, clusterLatencyBudget, clusterWording) || !run.Pass {
		t.Fatalf("clean run failed: %v", run.Violations)
	}
	if run.VerdictDigest == "" || run.VerdictDigest != run.ReferenceDigest {
		t.Fatalf("digests %q and %q, want equal and set", run.VerdictDigest, run.ReferenceDigest)
	}
}

// TestScoreClusterFailsKnownBadRuns spoils one thing of a clean run at a
// time; each must fail with its own violation and nothing else.
func TestScoreClusterFailsKnownBadRuns(t *testing.T) {
	cases := []struct {
		name  string
		spoil func(run, ref *clusterRun)
		want  string
	}{
		{"verdict differs", func(_, ref *clusterRun) { ref.verdicts[26] = `{"a":9}` },
			"dim 26: cluster verdict differs from single-node reference"},
		{"dim missing from reference", func(_, ref *clusterRun) { delete(ref.verdicts, 28) },
			"dim 28 missing from the single-node reference"},
		{"shot over budget", func(run, _ *clusterRun) {
			run.maxLatency, run.MaxLatencyMs = clusterLatencyBudget+time.Millisecond, 5001
		}, "request hung 5001ms, budget 5s"},
		{"goroutine leak", func(run, _ *clusterRun) { run.GoroutineAfter++ },
			"goroutine leak: 19 after drain, baseline 10"},
		{"two verdicts for one dim", func(run, _ *clusterRun) { run.diverged = []int{24} },
			"dim 24 served two different verdicts across the chaos run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run, ref := cleanClusterRuns()
			tc.spoil(run, ref)
			scoreCluster(run, ref, clusterLatencyBudget, clusterWording)
			if run.Pass || len(run.Violations) != 1 || run.Violations[0] != tc.want {
				t.Fatalf("pass=%v violations=%q, want exactly %q", run.Pass, run.Violations, tc.want)
			}
		})
	}
}

// TestScoreClusterStopsWithoutWork: a run or reference that completed
// nothing fails outright, before any per-dim or digest check.
func TestScoreClusterStopsWithoutWork(t *testing.T) {
	run, ref := cleanClusterRuns()
	run.OK = 0
	if scoreCluster(run, ref, partitionLatencyBudget, partitionWording) || run.VerdictDigest != "" ||
		len(run.Violations) != 1 || run.Violations[0] != "cluster run completed no requests" {
		t.Fatalf("violations=%q digest=%q", run.Violations, run.VerdictDigest)
	}
	run, ref = cleanClusterRuns()
	ref.OK = 0
	if scoreCluster(run, ref, partitionLatencyBudget, partitionWording) ||
		len(run.Violations) != 1 || run.Violations[0] != "unfaulted reference completed no requests" {
		t.Fatalf("violations=%q", run.Violations)
	}
}

// TestScoreClusterListsDimsInOrder: violations come out in dim order, so
// a failing artifact reads the same on every run.
func TestScoreClusterListsDimsInOrder(t *testing.T) {
	run, ref := cleanClusterRuns()
	ref.verdicts[28], ref.verdicts[24] = `{"a":8}`, `{"a":9}`
	scoreCluster(run, ref, clusterLatencyBudget, clusterWording)
	want := []string{
		"dim 24: cluster verdict differs from single-node reference",
		"dim 28: cluster verdict differs from single-node reference",
	}
	if !slices.Equal(run.Violations, want) {
		t.Fatalf("violations=%q, want %q", run.Violations, want)
	}
}

// TestP99 pins the percentile rule: index ⌊0.99·(n+1)⌋ of the sorted
// durations, clamped to the last, so below 200 samples p99 is the
// maximum. The input order must not matter and the input must not be
// reordered.
func TestP99(t *testing.T) {
	ms := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(n-i) * time.Millisecond // descending
		}
		return ds
	}
	cases := []struct {
		n    int
		want time.Duration
	}{
		{0, 0},
		{1, time.Millisecond},
		{100, 100 * time.Millisecond},
		{101, 101 * time.Millisecond},
		{200, 199 * time.Millisecond},
	}
	for _, tc := range cases {
		ds := ms(tc.n)
		if got := p99(ds); got != tc.want {
			t.Errorf("p99 of %d samples = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n > 1 && ds[0] < ds[1] {
			t.Errorf("p99 of %d samples sorted its input", tc.n)
		}
	}
}

// TestVerifyVerdicts runs the chaos profile's verdict check on synthetic
// shots against its real fault-free reference: matching verdicts pass
// with equal digests, and each known-bad run fails with its violation.
func TestVerifyVerdicts(t *testing.T) {
	ref := replay(service.Options{Workers: 1, Sweep: costedSweep(0, nil)},
		&http.Client{Timeout: 30 * time.Second}, [][]int{{24, 26}})
	good := map[int]string{24: ref.verdicts[24], 26: ref.verdicts[26]}
	if good[24] == "" || good[26] == "" {
		t.Fatalf("reference verdicts %q: want one per dim", good)
	}
	const bad = `{"Once":{"found":true,"notation":"{1, 1}"}}`
	ok := func(dim int, verdict string) shot {
		return shot{status: http.StatusOK, dim: dim, thresholds: verdict}
	}
	cases := []struct {
		name  string
		shots []shot
		want  []string
	}{
		{"clean", []shot{ok(24, good[24]), ok(26, good[26]), ok(24, good[24]),
			{status: http.StatusServiceUnavailable, dim: 26}}, nil},
		{"two verdicts for one dim", []shot{ok(24, good[24]), ok(26, good[26]), ok(24, bad)},
			[]string{"dim 24 served two different verdicts under chaos",
				"dim 24: chaos verdict differs from fault-free reference"}},
		{"no verdicts", []shot{{status: http.StatusServiceUnavailable, dim: 24}, ok(26, "")},
			[]string{"chaos profile completed no verdicts to verify"}},
		{"verdict differs", []shot{ok(24, good[24]), ok(26, bad)},
			[]string{"dim 26: chaos verdict differs from fault-free reference"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := newResult()
			verifyVerdicts(&res, tc.shots, 1)
			if res.Pass != (tc.want == nil) || !slices.Equal(res.Violations, tc.want) {
				t.Fatalf("pass=%v violations=%q, want %q", res.Pass, res.Violations, tc.want)
			}
			if tc.want == nil && (res.VerdictDigest == "" || res.VerdictDigest != res.ReferenceDigest) {
				t.Fatalf("digests %q and %q, want equal and set", res.VerdictDigest, res.ReferenceDigest)
			}
		})
	}
}

// TestProbeDispatch: a served probe that routes like the in-process
// reference passes with equal digests; against a reference that differs
// in one shape it fails the profile with exactly that shape's violation.
func TestProbeDispatch(t *testing.T) {
	svc := service.New(service.Options{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := blobclient.New(blobclient.Options{BaseURL: ts.URL, Breaker: soakBreakerOff})
	ref := dispatchReference()
	if len(ref) != dispatchShapes {
		t.Fatalf("%d reference verdicts, want %d", len(ref), dispatchShapes)
	}
	res := newResult()
	probeDispatch(&res, cl, ref)
	if !res.Pass || res.VerdictDigest == "" || res.VerdictDigest != res.ReferenceDigest {
		t.Fatalf("clean probe: pass=%v violations=%q digests %q and %q", res.Pass, res.Violations, res.VerdictDigest, res.ReferenceDigest)
	}

	bad := maps.Clone(ref)
	bad[44] = "gpu"
	if ref[44] == "gpu" {
		bad[44] = "cpu"
	}
	res = newResult()
	probeDispatch(&res, cl, bad)
	want := []string{"m=44: served dispatch verdict differs from the in-process reference"}
	if res.Pass || !slices.Equal(res.Violations, want) || res.VerdictDigest == res.ReferenceDigest {
		t.Fatalf("differing reference: pass=%v violations=%q, want %q and differing digests", res.Pass, res.Violations, want)
	}
}
