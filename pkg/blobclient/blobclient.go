// Package blobclient is the typed Go client for blob-served's v1 API.
// It speaks the unified envelope contract ({schema, data, error}) on
// /v1/advise, /v1/threshold and /v1/dispatch, surfaces the server's
// machine-readable error codes as *APIError values, honours Retry-After
// hints (header and error.retry_after_s agree in whole seconds; the
// client waits at least that long before a retry), and reuses
// internal/resilience for its retry backoff and circuit breaker so a
// misbehaving server is probed, not hammered.
//
// The zero-config path is one line:
//
//	c := blobclient.New(blobclient.Options{BaseURL: "http://localhost:8080"})
//	resp, err := c.Advise(ctx, service.AdviseRequest{...})
//
// The request and response types are the service package's wire types,
// so the client can never drift from the server's contract.
package blobclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/resilience"
	"repro/internal/service"
)

// APIError is a non-2xx answer from the service: the unified v1 error
// object plus the HTTP status it rode in on.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable failure class (queue_full, over_quota,
	// breaker_open, deadline_exceeded, bad_request, ...).
	Code string
	// Message is the human-oriented description.
	Message string
	// RetryAfter is the server's retry hint (whole seconds on the wire;
	// zero when the server sent none).
	RetryAfter time.Duration
}

// Error formats the failure with its machine-readable code first.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("blobclient: %s (%d): %s", e.Code, e.Status, e.Message)
	}
	return fmt.Sprintf("blobclient: http %d: %s", e.Status, e.Message)
}

// Transient reports whether the failure may clear on retry: shed and
// capacity statuses are retryable, client errors are not. Implementing
// resilience.Transienter is what plugs APIError into the shared retry
// policy.
func (e *APIError) Transient() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// DecodeError is a response that arrived but could not be trusted: the
// body was truncated mid-stream, failed the content-length check, was not
// the unified envelope, or carried the wrong schema token. These are wire
// integrity failures, not server verdicts — a proxy died mid-body, a
// connection was cut, a payload was corrupted — so DecodeError reports
// itself transient: the retry loop re-asks (the breaker still counts the
// failure, because a peer that keeps sending garbage is unhealthy).
type DecodeError struct {
	// Path is the request path; Status the HTTP status the broken body
	// rode in on.
	Path   string
	Status int
	// Reason is the integrity check that failed ("truncated body",
	// "non-envelope response", ...).
	Reason string
	// Err is the underlying decode/read error, when there is one.
	Err error
}

// Error formats the failure.
func (e *DecodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("blobclient: %s: %s (status %d): %v", e.Path, e.Reason, e.Status, e.Err)
	}
	return fmt.Sprintf("blobclient: %s: %s (status %d)", e.Path, e.Reason, e.Status)
}

// Unwrap exposes the underlying error (io.ErrUnexpectedEOF and friends).
func (e *DecodeError) Unwrap() error { return e.Err }

// Transient reports that retrying may yield an intact response
// (resilience.Transienter — this is what puts truncated and corrupted
// bodies on the retry path instead of failing the call terminally).
func (e *DecodeError) Transient() bool { return true }

// Options configures a Client. Only BaseURL is required.
type Options struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient replaces http.DefaultClient (timeouts, transports).
	HTTPClient *http.Client
	// Retry is the transient-failure retry policy. The zero value makes
	// one attempt; Retry-After hints stretch the backoff but never
	// shrink it.
	Retry resilience.RetryPolicy
	// Breaker tunes the client-side circuit breaker; the zero value
	// takes resilience.BreakerConfig's defaults. While open, calls fail
	// fast with resilience.ErrOpen instead of touching the server.
	Breaker resilience.BreakerConfig
	// APIKey, when set, is sent as X-API-Key — the server's fair-share
	// admission identity.
	APIKey string
	// DeadlineMs, when positive, is sent as X-Deadline-Ms so the server
	// sheds the request once the client would no longer be waiting.
	DeadlineMs int
}

// Client is a typed v1 API client. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retry   resilience.RetryPolicy
	breaker *resilience.Breaker
	apiKey  string
	deadl   int
}

// New builds a Client.
func New(opts Options) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{
		base:    strings.TrimRight(opts.BaseURL, "/"),
		hc:      hc,
		retry:   opts.Retry,
		breaker: resilience.NewBreaker(opts.Breaker),
		apiKey:  opts.APIKey,
		deadl:   opts.DeadlineMs,
	}
}

// Advise evaluates a batch of call groups (POST /v1/advise).
func (c *Client) Advise(ctx context.Context, req service.AdviseRequest) (*service.AdviseResponse, error) {
	return call[service.AdviseResponse](ctx, c, "/v1/advise", service.SchemaAdvise, req, nil)
}

// Threshold runs (or fetches from cache) one offload-threshold sweep
// (POST /v1/threshold).
func (c *Client) Threshold(ctx context.Context, req service.ThresholdRequest) (*service.ThresholdResponse, error) {
	return call[service.ThresholdResponse](ctx, c, "/v1/threshold", service.SchemaThreshold, req, nil)
}

// ThresholdPeer is Threshold with the peer cache-fill marker
// (service.PeerFillHeader) stamped with origin, the requesting cluster
// member's name. The receiving replica answers from its own cache or
// computes locally, but never fans out another fill — the cluster's
// loop guard.
func (c *Client) ThresholdPeer(ctx context.Context, req service.ThresholdRequest, origin string) (*service.ThresholdResponse, error) {
	hdr := map[string]string{service.PeerFillHeader: origin}
	return call[service.ThresholdResponse](ctx, c, "/v1/threshold", service.SchemaThreshold, req, hdr)
}

// DispatchBatch routes a batch of call shapes through the server's
// offload dispatcher (POST /v1/dispatch).
func (c *Client) DispatchBatch(ctx context.Context, req service.DispatchRequest) (*service.DispatchResponse, error) {
	return call[service.DispatchResponse](ctx, c, "/v1/dispatch", service.SchemaDispatch, req, nil)
}

// Health reads the liveness endpoint (GET /healthz).
func (c *Client) Health(ctx context.Context) (*service.HealthBody, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	return roundTrip[service.HealthBody](c, httpReq, service.SchemaHealth)
}

// Ready reads the readiness endpoint (GET /readyz) — distinct from
// liveness, it answers 503 code "not_ready" while the replica is
// draining or before its worker pool is armed. Cluster health checks
// and rolling restarts key off this, not /healthz.
func (c *Client) Ready(ctx context.Context) (*service.ReadyBody, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	return roundTrip[service.ReadyBody](c, httpReq, service.SchemaReady)
}

// Metrics scrapes the Prometheus text exposition (GET /metrics).
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Message: string(b)}
	}
	return string(b), nil
}

// call POSTs one request with the client's breaker and retry policy.
// The breaker sits inside the retry loop so every attempt records an
// outcome; resilience.IsTransient decides retryability (APIError
// implements Transienter), and a server Retry-After hint raises the
// backoff floor for the next attempt.
func call[T any](ctx context.Context, c *Client, path, schema string, in any, hdr map[string]string) (*T, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for n := 1; ; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, err := attempt[T](ctx, c, path, body, schema, hdr)
		if err == nil {
			return out, nil
		}
		if n >= attempts || !resilience.IsTransient(err) {
			return nil, err
		}
		delay := c.retry.Delay(n)
		var ae *APIError
		if errors.As(err, &ae) && ae.RetryAfter > delay {
			delay = ae.RetryAfter
		}
		if serr := sleep(ctx, delay); serr != nil {
			return nil, serr
		}
	}
}

// attempt makes one breaker-guarded try. Only failures that speak to the
// server's health count against the breaker: network errors and
// transient statuses (429/5xx). A 4xx is the request's fault — recording
// it as a success keeps one buggy caller from opening the breaker for
// everyone sharing the client. Context cancellation likewise proves
// nothing about the server.
func attempt[T any](ctx context.Context, c *Client, path string, body []byte, schema string, hdr map[string]string) (*T, error) {
	if err := c.breaker.Allow(); err != nil {
		return nil, err
	}
	out, err := post[T](ctx, c, path, body, schema, hdr)
	switch {
	case err == nil:
		c.breaker.Record(nil)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		c.breaker.Record(nil)
	default:
		var ae *APIError
		if errors.As(err, &ae) && !ae.Transient() {
			c.breaker.Record(nil)
		} else {
			c.breaker.Record(err)
		}
	}
	return out, err
}

// sleep waits d (or returns early with the context's error).
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// post performs one POST attempt.
func post[T any](ctx context.Context, c *Client, path string, body []byte, schema string, hdr map[string]string) (*T, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return roundTrip[T](c, req, schema)
}

// wireEnvelope is the client-side shape of the unified v1 envelope.
type wireEnvelope struct {
	Schema string            `json:"schema"`
	Data   json.RawMessage   `json:"data"`
	Error  *service.APIError `json:"error"`
}

// roundTrip executes one HTTP exchange and decodes the envelope. A 200
// decodes in one pass, data straight into the result; only a reply that
// pass cannot take (a non-200, a broken body, absent or null data) goes
// on to the two-step envelope parse, which names the failure.
func roundTrip[T any](c *Client, req *http.Request, schema string) (*T, error) {
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	if c.deadl > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.Itoa(c.deadl))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	path, status := req.URL.Path, resp.StatusCode
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		// A body that dies mid-read (io.ErrUnexpectedEOF, a reset) is a wire
		// failure, not an answer — classified transient so the retry loop
		// and breaker both see it.
		return nil, &DecodeError{Path: path, Status: status, Reason: "reading body", Err: err}
	}
	if resp.ContentLength >= 0 && int64(len(raw)) != resp.ContentLength {
		return nil, &DecodeError{Path: path, Status: status,
			Reason: fmt.Sprintf("truncated body: read %d of %d declared bytes", len(raw), resp.ContentLength)}
	}
	if status == http.StatusOK {
		var ok struct {
			Schema string            `json:"schema"`
			Data   *T                `json:"data"`
			Error  *service.APIError `json:"error"`
		}
		if json.Unmarshal(raw, &ok) == nil && ok.Data != nil {
			if ok.Schema != schema {
				return nil, schemaError(path, status, ok.Schema, schema)
			}
			return ok.Data, nil
		}
	}
	var env wireEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, &DecodeError{Path: path, Status: status, Reason: "non-envelope response", Err: err}
	}
	if status != http.StatusOK {
		ae := &APIError{Status: status}
		if env.Error != nil {
			ae.Code = env.Error.Code
			ae.Message = env.Error.Message
			ae.RetryAfter = retryAfterHint(resp, env.Error)
		} else {
			ae.Message = strings.TrimSpace(string(raw))
		}
		return nil, ae
	}
	if env.Schema != schema {
		return nil, schemaError(path, status, env.Schema, schema)
	}
	out := new(T)
	if err := json.Unmarshal(env.Data, out); err != nil {
		return nil, &DecodeError{Path: path, Status: status, Reason: "undecodable data payload", Err: err}
	}
	return out, nil
}

// schemaError reports a 200 whose envelope names the wrong schema.
func schemaError(path string, status int, got, want string) error {
	return &DecodeError{Path: path, Status: status, Reason: fmt.Sprintf("schema token %q, want %q", got, want)}
}

// retryAfterHint resolves the server's retry hint, preferring the
// header (authoritative for intermediaries) and falling back to the
// JSON mirror; both are whole seconds by contract.
func retryAfterHint(resp *http.Response, e *service.APIError) time.Duration {
	if h := resp.Header.Get("Retry-After"); h != "" {
		if secs, err := strconv.Atoi(h); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return time.Duration(e.RetryAfterS) * time.Second
}
