package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/resilience"
	"repro/internal/sim/systems"
)

// TestRecoveredMiddleware: a panicking handler is contained — JSON 500,
// panics_total tick — and the server keeps serving.
func TestRecoveredMiddleware(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	h := s.instrument("/boom", s.recovered(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var env wireEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("500 body is not JSON: %v (%q)", err, rec.Body.String())
	}
	if env.Schema != SchemaError || env.Error == nil || env.Error.Message == "" {
		t.Fatalf("500 body is not the v1 error envelope: %q", rec.Body.String())
	}
	if s.metrics.PanicsTotal.Value() != 1 {
		t.Fatalf("panics_total = %d, want 1", s.metrics.PanicsTotal.Value())
	}
}

// TestSweepPanicContained: a PanicKind fault at the service injection
// point (standing in for any panicking backend) becomes a JSON 500, not
// a dead worker goroutine — and the pool keeps serving afterwards.
func TestSweepPanicContained(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Inject: (&faultinject.Plan{Rules: []faultinject.Rule{
			{Backend: faultinject.BackendService, Probability: 1, Kind: faultinject.PanicKind, MaxHits: 1},
		}}).Arm(),
	})
	resp, body := postJSON(t, ts.URL+"/v1/threshold", smallSweep)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	if e := decodeAPIError(t, body); e.Message == "" {
		t.Fatalf("500 body is not the v1 error envelope: %s", body)
	}
	if got := s.metrics.PanicsTotal.Value(); got != 1 {
		t.Fatalf("panics_total = %d, want 1", got)
	}
	// MaxHits 1: the plan is spent, the pool survived, service recovers.
	resp, body = postJSON(t, ts.URL+"/v1/threshold", smallSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request: status = %d (body %s)", resp.StatusCode, body)
	}
}

// TestRequestTimeout504: a sweep that outlives the request budget is
// answered 504 with the JSON error envelope and counted.
func TestRequestTimeout504(t *testing.T) {
	s, ts := newTestServer(t, Options{
		RequestTimeout: 50 * time.Millisecond,
		Sweep: func(ctx context.Context, _ systems.System, _ []core.ProblemType, _ []core.Precision, _ core.Config) ([]*core.Series, error) {
			<-ctx.Done() // the flight context is cancelled once every waiter is gone
			return nil, ctx.Err()
		},
	})
	resp, body := postJSON(t, ts.URL+"/v1/threshold", smallSweep)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if e := decodeAPIError(t, body); e.Code != "deadline_exceeded" || e.Message == "" {
		t.Fatalf("504 body is not the v1 error envelope: %s", body)
	}
	if got := s.metrics.TimeoutsTotal.Value(); got != 1 {
		t.Fatalf("timeouts_total = %d, want 1", got)
	}
}

// TestBreakerStaleDegradationAndRecovery walks the full degradation arc:
// healthy serve -> cache expiry -> backend failures trip the breaker ->
// breaker-open requests serve the stale entry (marked, counted) or 503
// without one -> half-open probe recovers -> fresh serves resume.
func TestBreakerStaleDegradationAndRecovery(t *testing.T) {
	var failing atomic.Bool
	s, ts := newTestServer(t, Options{
		CacheTTL: time.Minute,
		// The healthy request below counts as one breaker success, so with
		// MinRequests 3 the second failure is what trips it (ratio 2/3).
		Breaker: resilience.BreakerConfig{
			MinRequests:  3,
			FailureRatio: 0.5,
			OpenTimeout:  100 * time.Millisecond,
		},
		Sweep: func(ctx context.Context, sys systems.System, problems []core.ProblemType, precs []core.Precision, cfg core.Config) ([]*core.Series, error) {
			if failing.Load() {
				return nil, fmt.Errorf("backend down")
			}
			return core.Run(ctx, sys, problems, precs, cfg)
		},
	})

	// Healthy: compute and cache one result.
	resp, body := postJSON(t, ts.URL+"/v1/threshold", smallSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request: %d (%s)", resp.StatusCode, body)
	}
	var fresh ThresholdResponse
	decodeEnvelope(t, body, SchemaThreshold, &fresh)

	// Age the entry past its TTL so Get misses but GetStale still has it.
	s.cache.clock = func() time.Time { return time.Now().Add(2 * time.Minute) }

	// Two straight failures trip the breaker (2 of 3 requests failed).
	failing.Store(true)
	for i := 0; i < 2; i++ {
		resp, _ = postJSON(t, ts.URL+"/v1/threshold", smallSweep)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500", i, resp.StatusCode)
		}
	}

	// Breaker open + stale entry available: degraded 200, marked stale.
	resp, body = postJSON(t, ts.URL+"/v1/threshold", smallSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("breaker-open request: %d (%s)", resp.StatusCode, body)
	}
	var stale ThresholdResponse
	decodeEnvelope(t, body, SchemaThreshold, &stale)
	if !stale.Stale || !stale.Cached {
		t.Fatalf("degraded response not marked stale+cached: %s", body)
	}
	if stale.Thresholds["Once"] != fresh.Thresholds["Once"] {
		t.Fatalf("stale serve returned different verdicts: %v vs %v",
			stale.Thresholds["Once"], fresh.Thresholds["Once"])
	}
	if s.metrics.StaleServes.Value() != 1 || s.metrics.BreakerOpenTotal.Value() != 1 {
		t.Fatalf("stale_serves=%d breaker_open=%d, want 1/1",
			s.metrics.StaleServes.Value(), s.metrics.BreakerOpenTotal.Value())
	}

	// Breaker open + nothing cached for this key: 503 with Retry-After.
	otherKey := `{"system":"isambard-ai","kernel":"gemm","problem":"tall_k_16m","precision":"f32","config":{"max_dim":96,"iterations":8}}`
	resp, body = postJSON(t, ts.URL+"/v1/threshold", otherKey)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open uncached request: %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Half-open recovery: after OpenTimeout a healthy probe closes the
	// breaker and fresh results flow again.
	failing.Store(false)
	time.Sleep(150 * time.Millisecond)
	resp, body = postJSON(t, ts.URL+"/v1/threshold", smallSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("half-open probe: %d (%s)", resp.StatusCode, body)
	}
	var recovered ThresholdResponse
	decodeEnvelope(t, body, SchemaThreshold, &recovered)
	if recovered.Stale || recovered.Cached {
		t.Fatalf("recovered response still degraded: %s", body)
	}
	if s.metrics.BreakerTransitions.Value() < 3 { // closed>open, open>half-open, half-open>closed
		t.Fatalf("breaker_transitions = %d, want >= 3", s.metrics.BreakerTransitions.Value())
	}
}

// TestBreakerHalfOpenRefusalServesStale reaches the second degradation
// site: the breaker is half-open, so requests pass Refusing and go
// through admission, but its one probe slot is taken and the flight's
// breaker refuses with ErrOpen. A key with a stale entry gets the marked
// stale answer; a key without one gets 503 breaker_open.
func TestBreakerHalfOpenRefusalServesStale(t *testing.T) {
	var failing atomic.Bool
	probeIn, probeOut := make(chan struct{}), make(chan struct{})
	s, ts := newTestServer(t, Options{
		CacheTTL: time.Minute,
		Breaker: resilience.BreakerConfig{
			MinRequests:  3,
			FailureRatio: 0.5,
			OpenTimeout:  50 * time.Millisecond,
			HalfOpenMax:  1,
		},
		Sweep: func(ctx context.Context, sys systems.System, problems []core.ProblemType, precs []core.Precision, cfg core.Config) ([]*core.Series, error) {
			if problems[0].Name == "short_mn32_k" {
				close(probeIn)
				<-probeOut
			}
			if failing.Load() {
				return nil, fmt.Errorf("backend down")
			}
			return core.Run(ctx, sys, problems, precs, cfg)
		},
	})
	body := func(problem string) string {
		return fmt.Sprintf(`{"system":"isambard-ai","kernel":"gemm","problem":%q,"precision":"f32","config":{"max_dim":96,"iterations":8}}`, problem)
	}

	// One healthy result, aged past its TTL, then two failures trip the
	// breaker.
	if resp, b := postJSON(t, ts.URL+"/v1/threshold", body("square")); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request: %d (%s)", resp.StatusCode, b)
	}
	s.cache.clock = func() time.Time { return time.Now().Add(2 * time.Minute) }
	failing.Store(true)
	for i := 0; i < 2; i++ {
		if resp, _ := postJSON(t, ts.URL+"/v1/threshold", body("square")); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500", i, resp.StatusCode)
		}
	}

	// Past OpenTimeout the breaker admits one half-open probe; hold it in
	// the sweep so the probe slot stays taken.
	time.Sleep(80 * time.Millisecond)
	release := sync.OnceFunc(func() { close(probeOut) })
	defer release()
	probeDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/threshold", "application/json", strings.NewReader(body("short_mn32_k")))
		if err != nil {
			probeDone <- 0
			return
		}
		resp.Body.Close()
		probeDone <- resp.StatusCode
	}()
	<-probeIn
	admitted := s.metrics.AdmittedTotal.Value()

	resp, b := postJSON(t, ts.URL+"/v1/threshold", body("square"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refused flight with a stale entry: %d (%s), want 200", resp.StatusCode, b)
	}
	var stale ThresholdResponse
	decodeEnvelope(t, b, SchemaThreshold, &stale)
	if !stale.Stale || !stale.Cached {
		t.Fatalf("degraded response not marked stale+cached: %s", b)
	}

	resp, b = postJSON(t, ts.URL+"/v1/threshold", body("tall_k_16m"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("refused flight without a stale entry: %d (%s), want 503", resp.StatusCode, b)
	}
	if e := decodeAPIError(t, b); e.Code != "breaker_open" || e.Message != resilience.ErrOpen.Error() {
		t.Fatalf("503 body = %+v, want breaker_open carrying %q", e, resilience.ErrOpen)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Both requests went through admission: this is the post-admission
	// site, not the Refusing shortcut.
	if got := s.metrics.AdmittedTotal.Value() - admitted; got != 2 {
		t.Fatalf("admitted %d refused flights, want 2", got)
	}
	if s.metrics.StaleServes.Value() != 1 || s.metrics.BreakerOpenTotal.Value() != 2 {
		t.Fatalf("stale_serves=%d breaker_open=%d, want 1/2",
			s.metrics.StaleServes.Value(), s.metrics.BreakerOpenTotal.Value())
	}

	release()
	if code := <-probeDone; code != http.StatusInternalServerError {
		t.Fatalf("failing probe: status %d, want 500", code)
	}
}

// TestThresholdUnderChaosPlan is the service half of the issue's chaos
// acceptance: with a seeded 30%-transient GPU fault plan armed on the
// sim backends and retries enabled, blob-served's handler returns no
// 5xx, and the verdicts match a fault-free server bit for bit.
func TestThresholdUnderChaosPlan(t *testing.T) {
	probs := []string{"square", "tall_k_16m", "short_mn32_k"}
	body := func(p string) string {
		return fmt.Sprintf(`{"system":"isambard-ai","kernel":"gemm","problem":%q,"precision":"f32","config":{"max_dim":96,"iterations":8}}`, p)
	}
	clean := map[string]ThresholdResponse{}
	_, cleanTS := newTestServer(t, Options{})
	for _, p := range probs {
		resp, b := postJSON(t, cleanTS.URL+"/v1/threshold", body(p))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("clean %s: %d (%s)", p, resp.StatusCode, b)
		}
		var out ThresholdResponse
		decodeEnvelope(t, b, SchemaThreshold, &out)
		clean[p] = out
	}

	inj := (&faultinject.Plan{Seed: 20260805, Rules: []faultinject.Rule{
		{Backend: faultinject.BackendGPU, Probability: 0.3, Kind: faultinject.Transient},
	}}).Arm()
	_, chaosTS := newTestServer(t, Options{
		Resilience: core.Resilience{MaxAttempts: 25},
		Sweep: func(ctx context.Context, sys systems.System, problems []core.ProblemType, precs []core.Precision, cfg core.Config) ([]*core.Series, error) {
			sys.CPU.Inject = inj
			sys.GPU.Inject = inj
			return core.Run(ctx, sys, problems, precs, cfg)
		},
	})
	for _, p := range probs {
		resp, b := postJSON(t, chaosTS.URL+"/v1/threshold", body(p))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chaos %s: status %d (%s) — resilient service must not 5xx on transient faults",
				p, resp.StatusCode, b)
		}
		var out ThresholdResponse
		decodeEnvelope(t, b, SchemaThreshold, &out)
		for st, want := range clean[p].Thresholds {
			if out.Thresholds[st] != want {
				t.Fatalf("chaos %s %s: verdict %+v != clean %+v", p, st, out.Thresholds[st], want)
			}
		}
	}
	if n := inj.Stats().Transients; n == 0 {
		t.Fatal("the chaos plan never fired")
	}
}

// TestCacheTTLAndGetStale covers the cache's freshness mechanics in
// isolation from HTTP.
func TestCacheTTLAndGetStale(t *testing.T) {
	c := NewCacheTTL(4, time.Minute)
	base := time.Unix(5000, 0)
	now := base
	c.clock = func() time.Time { return now }

	c.Put("k", 42)
	if v, ok := c.Get("k"); !ok || v.(int) != 42 {
		t.Fatal("fresh entry missing")
	}
	now = base.Add(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Fatal("expired entry still fresh")
	}
	v, expired, ok := c.GetStale("k")
	if !ok || !expired || v.(int) != 42 {
		t.Fatalf("GetStale = (%v, %v, %v), want (42, true, true)", v, expired, ok)
	}
	// Re-Put refreshes the stored-at time.
	c.Put("k", 43)
	if v, ok := c.Get("k"); !ok || v.(int) != 43 {
		t.Fatal("refreshed entry not fresh")
	}
	// No-TTL cache: nothing ever expires and GetStale mirrors Get.
	nc := NewCache(2)
	nc.Put("x", 1)
	if _, expired, ok := nc.GetStale("x"); !ok || expired {
		t.Fatal("no-TTL entry reported expired")
	}
	if _, _, ok := nc.GetStale("missing"); ok {
		t.Fatal("missing key found")
	}
}
