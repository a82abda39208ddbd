package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// wireEnvelope mirrors Envelope with a raw Data payload, so tests can
// check the schema token before unmarshalling the typed body.
type wireEnvelope struct {
	Schema string          `json:"schema"`
	Data   json.RawMessage `json:"data"`
	Error  *APIError       `json:"error"`
}

// decodeEnvelope unwraps a success envelope into data, failing the test
// on a schema mismatch or an error payload.
func decodeEnvelope(t *testing.T, body, wantSchema string, data any) {
	t.Helper()
	var env wireEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("non-envelope body %q: %v", body, err)
	}
	if env.Schema != wantSchema {
		t.Fatalf("schema = %q, want %q (body %s)", env.Schema, wantSchema, body)
	}
	if env.Error != nil {
		t.Fatalf("unexpected error payload: %+v", env.Error)
	}
	if err := json.Unmarshal(env.Data, data); err != nil {
		t.Fatalf("bad data payload %s: %v", env.Data, err)
	}
}

// decodeAPIError unwraps an error envelope, failing the test when the
// body is not a well-formed v1 error.
func decodeAPIError(t *testing.T, body string) *APIError {
	t.Helper()
	var env wireEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("non-envelope error body %q: %v", body, err)
	}
	if env.Schema != SchemaError || env.Error == nil {
		t.Fatalf("not a v1 error envelope: %s", body)
	}
	return env.Error
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body HealthBody
	decodeEnvelope(t, string(raw), SchemaHealth, &body)
	if body.Status != "ok" || body.UptimeSeconds < 0 {
		t.Fatalf("body = %+v", body)
	}
}

func TestAdviseHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := `{
	  "systems": ["isambard-ai"],
	  "calls": [
	    {"kernel":"gemm","m":2048,"n":2048,"k":2048,"precision":"f32","count":32,"movement":"once"},
	    {"kernel":"gemv","m":8,"n":8,"precision":"f64","count":1,"movement":"always"}
	  ]
	}`
	resp, body := postJSON(t, ts.URL+"/v1/advise", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out AdviseResponse
	decodeEnvelope(t, body, SchemaAdvise, &out)
	if len(out.Verdicts) != 2 || len(out.Summaries) != 1 {
		t.Fatalf("verdicts=%d summaries=%d", len(out.Verdicts), len(out.Summaries))
	}
	// Same directions the advisor unit tests assert: big GEMM offloads on
	// the GH200, tiny GEMV stays on the CPU.
	if !out.Verdicts[0].Offload {
		t.Fatalf("large GEMM should offload: %+v", out.Verdicts[0])
	}
	if out.Verdicts[1].Offload {
		t.Fatalf("tiny GEMV should stay on CPU: %+v", out.Verdicts[1])
	}
	if out.Summaries[0].System != "Isambard-AI" {
		t.Fatalf("summary system = %q", out.Summaries[0].System)
	}
}

func TestAdviseDefaultsToAllSystems(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := `{"calls":[{"kernel":"gemm","m":64,"n":64,"k":64,"precision":"f64","count":1,"movement":"usm"}]}`
	resp, body := postJSON(t, ts.URL+"/v1/advise", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out AdviseResponse
	decodeEnvelope(t, body, SchemaAdvise, &out)
	if len(out.Verdicts) != 3 || len(out.Summaries) != 3 {
		t.Fatalf("want one verdict and summary per system, got %d/%d", len(out.Verdicts), len(out.Summaries))
	}
}

func TestAdviseBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name, body, wantErr string
	}{
		{"empty body", ``, "invalid JSON"},
		{"not json", `{`, "invalid JSON"},
		{"unknown field", `{"callz":[]}`, "invalid JSON"},
		{"trailing data", `{"calls":[{"kernel":"gemm","m":1,"n":1,"k":1,"precision":"f64","count":1,"movement":"once"}]}{}`, "trailing data"},
		{"no calls", `{"calls":[]}`, "calls must not be empty"},
		{"unknown system", `{"systems":["cray-1"],"calls":[{"kernel":"gemm","m":1,"n":1,"k":1,"precision":"f64","count":1,"movement":"once"}]}`, "unknown system"},
		{"bad kernel", `{"calls":[{"kernel":"trsm","m":1,"n":1,"k":1,"precision":"f64","count":1,"movement":"once"}]}`, "unknown kernel"},
		{"bad precision", `{"calls":[{"kernel":"gemm","m":1,"n":1,"k":1,"precision":"f16","count":1,"movement":"once"}]}`, "unknown precision"},
		{"bad movement", `{"calls":[{"kernel":"gemm","m":1,"n":1,"k":1,"precision":"f64","count":1,"movement":"sometimes"}]}`, "unknown strategy"},
		{"zero count", `{"calls":[{"kernel":"gemm","m":1,"n":1,"k":1,"precision":"f64","count":0,"movement":"once"}]}`, "count must be >= 1"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/advise", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, body %s", tc.name, resp.StatusCode, body)
		}
		e := decodeAPIError(t, body)
		if e.Code != "bad_request" {
			t.Fatalf("%s: code = %q, want bad_request", tc.name, e.Code)
		}
		if !strings.Contains(e.Message, tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, e.Message, tc.wantErr)
		}
	}
}

func TestPostOnlyEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/v1/advise", "/v1/threshold", "/v1/dispatch"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: status = %d", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Fatalf("GET %s: Allow = %q", path, allow)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// Generate one success and one client error, then scrape.
	postJSON(t, ts.URL+"/v1/advise", `{"calls":[{"kernel":"gemv","m":4,"n":4,"precision":"f32","count":1,"movement":"usm"}]}`)
	postJSON(t, ts.URL+"/v1/advise", `{"calls":[]}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	for _, want := range []string{
		`blob_requests_total{endpoint="/v1/advise",code="200"} 1`,
		`blob_requests_total{endpoint="/v1/advise",code="400"} 1`,
		`blob_request_seconds_bucket{endpoint="/v1/advise",le="+Inf"} 2`,
		"blob_cache_hits_total 0",
		"blob_cache_misses_total 0",
		"blob_inflight_requests 1", // the /metrics request itself
		"blob_sweep_queue_depth 0",
		`blob_sweeps_total{result="started"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
}
