package blobclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/service"
)

// newService stands up a real blob-served handler and a client pointed at
// it; every test runs against the actual service stack, not a mock.
func newService(t *testing.T, opts service.Options, copts Options) (*service.Server, *Client) {
	t.Helper()
	svc := service.New(opts)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	copts.BaseURL = ts.URL
	return svc, New(copts)
}

func adviseReq() service.AdviseRequest {
	return service.AdviseRequest{
		Systems: []string{"isambard-ai"},
		Calls: []service.CallRequest{{
			Kernel: "gemm", M: 2048, N: 2048, K: 2048,
			Precision: "f32", Count: 32, Movement: "once",
		}},
	}
}

func TestAdviseRoundTrip(t *testing.T) {
	_, c := newService(t, service.Options{}, Options{})
	resp, err := c.Advise(context.Background(), adviseReq())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Verdicts) != 1 {
		t.Fatalf("verdicts = %+v", resp.Verdicts)
	}
	v := resp.Verdicts[0]
	if v.System != "Isambard-AI" || !v.Offload || v.Speedup <= 1 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestThresholdRoundTrip(t *testing.T) {
	_, c := newService(t, service.Options{}, Options{})
	req := service.ThresholdRequest{System: "isambard-ai", Kernel: "gemm", Precision: "f32"}
	req.Config.MaxDim = 64
	req.Config.Iterations = 8
	first, err := c.Threshold(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.System != "Isambard-AI" || first.Samples != 64 {
		t.Fatalf("first sweep: %+v", first)
	}
	again, err := c.Threshold(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Key != first.Key {
		t.Fatalf("repeat not served from cache: %+v", again)
	}
}

func TestDispatchBatchRoundTrip(t *testing.T) {
	_, c := newService(t, service.Options{}, Options{})
	req := service.DispatchRequest{System: "isambard-ai"}
	for i := 0; i < 50; i++ {
		cr := service.DispatchCallRequest{}
		cr.Kernel = "gemm"
		cr.M, cr.N, cr.K = 16+4*(i%10), 64, 64
		cr.Precision = "f64"
		cr.Count = 1
		cr.Movement = "once"
		req.Calls = append(req.Calls, cr)
	}
	resp, err := c.DispatchBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Decisions) != 50 {
		t.Fatalf("decisions = %d", len(resp.Decisions))
	}
	// 10 distinct shapes in a 50-call batch: the dispatcher's memoization
	// must answer the 40 repeats from cache.
	if resp.CacheHits < 40 {
		t.Fatalf("cache hits = %d, want >= 40", resp.CacheHits)
	}
	for _, d := range resp.Decisions {
		if d.Device != "cpu" && d.Device != "gpu" {
			t.Fatalf("decision device %q", d.Device)
		}
	}
}

func TestHealthAndMetrics(t *testing.T) {
	_, c := newService(t, service.Options{}, Options{})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
	if _, err := c.Advise(context.Background(), adviseReq()); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "blob_requests_total") {
		t.Fatalf("metrics scrape missing counters:\n%s", m)
	}
}

// TestBadRequestSurfacesAPIError: validation failures come back as a
// typed *APIError carrying the machine-readable code, and are not
// retried (one attempt even with a generous retry budget).
func TestBadRequestSurfacesAPIError(t *testing.T) {
	var hits atomic.Int64
	svc := service.New(service.Options{})
	inner := svc.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	c := New(Options{BaseURL: ts.URL, Retry: resilience.RetryPolicy{MaxAttempts: 5}})

	req := adviseReq()
	req.Systems = []string{"cray-1"}
	_, err := c.Advise(context.Background(), req)
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error = %v, want *APIError", err)
	}
	if ae.Status != http.StatusBadRequest || ae.Code != "bad_request" || ae.Message == "" {
		t.Fatalf("APIError = %+v", ae)
	}
	if ae.Transient() {
		t.Fatal("a 400 must not be transient")
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("server saw %d attempts for a non-retryable error, want 1", n)
	}
}

// TestRetryHonorsRetryAfter: a 503 with Retry-After raises the backoff
// floor — the second attempt arrives no sooner than the hint — and the
// retry succeeds once the server recovers.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	svc := service.New(service.Options{})
	inner := svc.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"schema":"blob.v1.error","error":{"code":"queue_full","message":"queue full","retry_after_s":1}}`))
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	c := New(Options{BaseURL: ts.URL, Retry: resilience.RetryPolicy{MaxAttempts: 3}})

	began := time.Now()
	resp, err := c.Advise(context.Background(), adviseReq())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Verdicts) != 1 {
		t.Fatalf("verdicts = %+v", resp.Verdicts)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("attempts = %d, want 2", n)
	}
	// The hint was 1 second; the retry must not have fired early even
	// though the policy's own backoff (BaseDelay 0) would be instant.
	if waited := time.Since(began); waited < time.Second {
		t.Fatalf("retried after %v, before the 1s Retry-After hint", waited)
	}
}

// TestRetryAfterHintIsSeconds pins the client-side half of the units
// bugfix: a rejection's hint decodes to whole seconds, with the header
// and the JSON mirror agreeing.
func TestRetryAfterHintIsSeconds(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"schema":"blob.v1.error","error":{"code":"queue_full","message":"queue full","retry_after_s":7}}`))
	}))
	t.Cleanup(ts.Close)
	c := New(Options{BaseURL: ts.URL})

	_, err := c.Advise(context.Background(), adviseReq())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error = %v, want *APIError", err)
	}
	if ae.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s (a milliseconds reading would be 7ms or 7000s)", ae.RetryAfter)
	}
	if !ae.Transient() {
		t.Fatal("a 503 must be transient")
	}
}

// TestBreakerOpensOnSustainedFailure: enough transport-level failures
// trip the client breaker; the next call fails fast with ErrOpen and
// never reaches the wire.
func TestBreakerOpensOnSustainedFailure(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"schema":"blob.v1.error","error":{"code":"queue_full","message":"queue full","retry_after_s":1}}`))
	}))
	t.Cleanup(ts.Close)
	c := New(Options{
		BaseURL: ts.URL,
		Breaker: resilience.BreakerConfig{MinRequests: 3, FailureRatio: 1},
	})

	for i := 0; i < 3; i++ {
		if _, err := c.Advise(context.Background(), adviseReq()); err == nil {
			t.Fatal("expected failure")
		}
	}
	before := hits.Load()
	_, err := c.Advise(context.Background(), adviseReq())
	if !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("error = %v, want ErrOpen", err)
	}
	if hits.Load() != before {
		t.Fatal("open breaker still sent a request")
	}
}

// TestBadRequestsDoNotTripBreaker: a stream of 400s (the caller's bug)
// leaves the breaker closed, so healthy callers sharing the client are
// unaffected.
func TestBadRequestsDoNotTripBreaker(t *testing.T) {
	_, c := newService(t, service.Options{}, Options{
		Breaker: resilience.BreakerConfig{MinRequests: 2, FailureRatio: 0.5},
	})
	bad := adviseReq()
	bad.Systems = []string{"cray-1"}
	for i := 0; i < 10; i++ {
		var ae *APIError
		if _, err := c.Advise(context.Background(), bad); !errors.As(err, &ae) {
			t.Fatalf("error = %v, want *APIError", err)
		}
	}
	if _, err := c.Advise(context.Background(), adviseReq()); err != nil {
		t.Fatalf("breaker tripped on client errors: %v", err)
	}
}

// TestContextCancellation: a cancelled context aborts the call (and any
// pending retry sleep) promptly.
func TestContextCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"schema":"blob.v1.error","error":{"code":"queue_full","message":"queue full","retry_after_s":30}}`))
	}))
	t.Cleanup(ts.Close)
	c := New(Options{BaseURL: ts.URL, Retry: resilience.RetryPolicy{MaxAttempts: 3}})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Advise(ctx, adviseReq())
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt fail and the retry sleep start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the Retry-After sleep")
	}
}

// TestSchemaMismatchRejected: a 200 whose envelope names the wrong
// schema is an error, not silently mis-decoded data.
func TestSchemaMismatchRejected(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"schema":"blob.v1.threshold","data":{}}`))
	}))
	t.Cleanup(ts.Close)
	c := New(Options{BaseURL: ts.URL})
	_, err := c.Advise(context.Background(), adviseReq())
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("error = %v, want schema mismatch", err)
	}
}

// healthEnvelope is a minimal valid health body for the integrity tests.
const healthEnvelope = `{"schema":"blob.v1.health","data":{"status":"ok","uptime_seconds":1}}`

// TestTruncatedBodyRetried: a body cut mid-stream (Content-Length says
// more than arrived — the wire form of a dying proxy) must classify as a
// transient DecodeError and be healed by the retry policy, not returned
// terminally.
func TestTruncatedBodyRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if calls.Add(1) == 1 {
			// Promise the full envelope, deliver half: the client's read
			// ends in io.ErrUnexpectedEOF.
			w.Header().Set("Content-Length", fmt.Sprint(len(healthEnvelope)))
			w.Write([]byte(healthEnvelope[:20]))
			return
		}
		w.Write([]byte(healthEnvelope))
	}))
	t.Cleanup(ts.Close)

	// One attempt: the truncation surfaces as a transient DecodeError.
	c := New(Options{BaseURL: ts.URL})
	_, err := c.Health(context.Background())
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("error = %v (%T), want *DecodeError", err, err)
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("truncated body not transient: %v", err)
	}

	// With a retry budget the second, intact response heals the call.
	// (Health bypasses the retry loop, so prove it on the POST path.)
	calls.Store(0)
	svcTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		body := `{"schema":"blob.v1.threshold","data":{"system":"dawn","kernel":"gemv","problem":"square","definition":"d","precision":"f64","key":"k","samples":1,"thresholds":{},"cached":true}}`
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			w.Write([]byte(body[:25]))
			return
		}
		w.Write([]byte(body))
	}))
	t.Cleanup(svcTS.Close)
	rc := New(Options{BaseURL: svcTS.URL, Retry: resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}})
	resp, err := rc.Threshold(context.Background(), service.ThresholdRequest{System: "dawn", Kernel: "gemv", Precision: "f64"})
	if err != nil {
		t.Fatalf("retry did not heal the truncated body: %v", err)
	}
	if !resp.Cached {
		t.Fatalf("unexpected healed response: %+v", resp)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (initial + one retry)", got)
	}
}

// TestCorruptBodyRetriedAndBreakerCounted: a bit-flipped payload is a
// transient DecodeError (retried), and a peer that keeps sending garbage
// still opens the client breaker — integrity failures are retryable AND
// breaker-countable, unlike 4xx verdicts.
func TestCorruptBodyRetriedAndBreakerCounted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		corrupted := []byte(healthEnvelope)
		corrupted[0] ^= 0x01 // '{' -> 'z': structurally broken JSON
		w.Write(corrupted)
	}))
	t.Cleanup(ts.Close)

	c := New(Options{BaseURL: ts.URL, Breaker: resilience.BreakerConfig{
		MinRequests: 1, FailureRatio: 0.5, OpenTimeout: time.Hour,
	}})
	req := service.ThresholdRequest{System: "dawn", Kernel: "gemv", Precision: "f64"}
	_, err := c.Threshold(context.Background(), req)
	var de *DecodeError
	if !errors.As(err, &de) || !de.Transient() {
		t.Fatalf("error = %v, want transient *DecodeError", err)
	}
	// The decode failure counted: the breaker now refuses outright.
	if _, err := c.Threshold(context.Background(), req); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("breaker did not open on corrupt bodies: %v", err)
	}
}

// TestOnePassDecodeKeepsFailureContracts: a 200 decodes in one pass, and
// every reply that pass cannot take falls back to the envelope parse,
// which still names the same DecodeError reason or fills the same
// APIError as a two-step decode would.
func TestOnePassDecodeKeepsFailureContracts(t *testing.T) {
	const data = `{"system":"dawn","kernel":"gemv","problem":"square","definition":"d","precision":"f64","key":"k","samples":3,"thresholds":{}}`
	cases := []struct {
		name       string
		status     int
		retryAfter string // Retry-After header; "" sends none
		body       string
		reason     string        // DecodeError reason prefix, when a DecodeError is wanted
		code       string        // APIError code, when an APIError is wanted
		hint       time.Duration // APIError retry hint
	}{
		{name: "non-object JSON", status: 200, body: `[1,2]`, reason: "non-envelope response"},
		{name: "trailing garbage", status: 200, body: `{"schema":"blob.v1.threshold","data":` + data + `} x`, reason: "non-envelope response"},
		{name: "malformed error field", status: 200, body: `{"schema":"blob.v1.threshold","data":` + data + `,"error":5}`, reason: "non-envelope response"},
		{name: "undecodable data", status: 200, body: `{"schema":"blob.v1.threshold","data":{"samples":"many"}}`, reason: "undecodable data payload"},
		{name: "absent data", status: 200, body: `{"schema":"blob.v1.threshold"}`, reason: "undecodable data payload"},
		{name: "wrong schema, undecodable data", status: 200, body: `{"schema":"blob.v1.advise","data":{"samples":"many"}}`, reason: "schema token"},
		{name: "wrong schema, decodable data", status: 200, body: `{"schema":"blob.v1.advise","data":` + data + `}`, reason: "schema token"},
		{name: "non-envelope error reply", status: 502, body: `bad gateway`, reason: "non-envelope response"},
		{name: "429 hint from the header", status: 429, retryAfter: "3", body: `{"schema":"blob.v1.error","error":{"code":"over_quota","message":"m"}}`, code: "over_quota", hint: 3 * time.Second},
		{name: "429 hint from the body", status: 429, body: `{"schema":"blob.v1.error","error":{"code":"over_quota","message":"m","retry_after_s":4}}`, code: "over_quota", hint: 4 * time.Second},
		{name: "429 header wins over the body", status: 429, retryAfter: "2", body: `{"schema":"blob.v1.error","error":{"code":"over_quota","message":"m","retry_after_s":9}}`, code: "over_quota", hint: 2 * time.Second},
		{name: "null data", status: 200, body: `{"schema":"blob.v1.threshold","data":null}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body))
			}))
			t.Cleanup(ts.Close)
			c := New(Options{BaseURL: ts.URL})
			resp, err := c.Threshold(context.Background(), service.ThresholdRequest{System: "dawn", Kernel: "gemv", Precision: "f64"})
			var de *DecodeError
			var ae *APIError
			switch {
			case tc.reason != "":
				if !errors.As(err, &de) || !strings.HasPrefix(de.Reason, tc.reason) || de.Status != tc.status || !de.Transient() {
					t.Fatalf("error = %v (%T), want a transient DecodeError %q with status %d", err, err, tc.reason, tc.status)
				}
			case tc.code != "":
				if !errors.As(err, &ae) || ae.Status != tc.status || ae.Code != tc.code || ae.RetryAfter != tc.hint {
					t.Fatalf("error = %#v, want APIError %d %s with hint %v", err, tc.status, tc.code, tc.hint)
				}
			case err != nil || resp == nil:
				t.Fatalf("resp = %+v, err = %v, want a zero-valued success", resp, err)
			}
		})
	}
}
