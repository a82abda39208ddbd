package service

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"
)

// This file is the unified v1 response contract. Every v1 endpoint —
// /v1/advise, /v1/threshold, /v1/dispatch, plus /healthz — answers with
// the same envelope, written compact on one line by WriteJSON:
//
//	{"schema":"blob.v1.advise","data":{...}}          on success
//	{"schema":"blob.v1.error","error":{"code":"...",  on failure
//	  "message":"...","retry_after_s":2}}
//
// The schema token names the shape of data, so clients can dispatch on
// it without sniffing fields, and the error object carries the
// machine-readable code that used to ride in the ad-hoc "reason" field.
// Retry-After is expressed in whole seconds in exactly two places — the
// HTTP header and error.retry_after_s — and the two always agree (the
// header is authoritative for proxies, the body for clients that only
// read JSON).

// Schema tokens for the v1 envelope, one per response shape.
const (
	SchemaAdvise    = "blob.v1.advise"
	SchemaThreshold = "blob.v1.threshold"
	SchemaDispatch  = "blob.v1.dispatch"
	SchemaHealth    = "blob.v1.health"
	SchemaReady     = "blob.v1.ready"
	SchemaError     = "blob.v1.error"
)

// Envelope is the unified v1 response wrapper. Exactly one of Data and
// Error is set.
type Envelope struct {
	// Schema names the shape of Data (or SchemaError for failures).
	Schema string `json:"schema"`
	// Data is the endpoint's payload (AdviseResponse, ThresholdResponse,
	// DispatchResponse, HealthBody) on success.
	Data any `json:"data,omitempty"`
	// Error describes the failure on non-2xx responses.
	Error *APIError `json:"error,omitempty"`
}

// APIError is the unified v1 error object.
type APIError struct {
	// Code is the machine-readable failure class: bad_request,
	// method_not_allowed, internal, plus the rejection codes
	// (queue_full, over_quota, deadline_budget, breaker_open,
	// shutting_down, deadline_exceeded, abandoned).
	Code string `json:"code"`
	// Message is the human-oriented description.
	Message string `json:"message"`
	// RetryAfterS, when set, is the server's retry hint in whole seconds
	// and always equals the Retry-After response header.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// HealthBody is the /healthz payload inside the envelope.
type HealthBody struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ReadyBody is the /readyz payload inside the envelope — readiness as
// distinct from liveness. /healthz answers "ok" for as long as the
// process can serve bytes; /readyz answers 200 only while the replica
// should receive new traffic: not draining, worker pool armed. During a
// drain (or before the pool is armed) /readyz is a 503 error envelope
// with code "not_ready", which is what cluster health checks and rolling
// restarts key off.
type ReadyBody struct {
	Status        string  `json:"status"` // always "ready" on a 200
	Draining      bool    `json:"draining"`
	WorkersArmed  bool    `json:"workers_armed"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// WriteJSON is the service's one JSON reply writer: v encoded compact,
// one line, newline-terminated. Every HTTP reply body in the service
// and the cluster goes through it, so the wire has a single shape.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the client hanging up mid-body is not actionable
}

// WriteEnvelope writes a success envelope around data.
func WriteEnvelope(w http.ResponseWriter, status int, schema string, data any) {
	WriteJSON(w, status, Envelope{Schema: schema, Data: data})
}

// WriteError writes an error envelope. code "" derives a generic code
// from the status.
func WriteError(w http.ResponseWriter, status int, code string, err error) {
	if code == "" {
		code = codeForStatus(status)
	}
	WriteJSON(w, status, Envelope{
		Schema: SchemaError,
		Error:  &APIError{Code: code, Message: err.Error()},
	})
}

// codeForStatus maps a status with no more specific classification onto
// a generic error code.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusNotFound:
		return "not_found"
	default:
		return "internal"
	}
}

// retryAfterSeconds converts a retry hint to the wire unit: whole
// seconds, rounded up, floored at 1 so "retry immediately" can never be
// read as "no hint".
func retryAfterSeconds(retryAfter time.Duration) int {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Reject writes the uniform rejection contract for load-shedding and
// refusal responses: the Retry-After header and error.retry_after_s
// carry the same whole-second hint, and error.code carries the
// machine-readable rejection class.
func Reject(w http.ResponseWriter, status int, code string, retryAfter time.Duration, err error) {
	secs := retryAfterSeconds(retryAfter)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteJSON(w, status, Envelope{
		Schema: SchemaError,
		Error:  &APIError{Code: code, Message: err.Error(), RetryAfterS: secs},
	})
}
