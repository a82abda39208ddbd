package main

import (
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
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
