package service

import (
	"net/http"
	"strings"
	"testing"
)

const blackboxSweep = `{
  "system": "isambard-ai",
  "kernel": "gemm",
  "problem": "square",
  "precision": "f32",
  "model": "blackbox",
  "config": {"max_dim": 96, "iterations": 8}
}`

// TestThresholdModelBlackbox: a blackbox sweep answers from the committed
// tables — distinct cache identity from the roofline sweep of the same
// problem, and the response carries the model tag. The roofline response
// must not gain a model field at all, so pinned pre-model bodies stay
// byte-identical.
func TestThresholdModelBlackbox(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/threshold", blackboxSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var black ThresholdResponse
	decodeEnvelope(t, body, SchemaThreshold, &black)
	if black.Model != "blackbox" {
		t.Fatalf("blackbox response model = %q", black.Model)
	}
	if !strings.Contains(body, `"model":"blackbox"`) {
		t.Fatalf("blackbox body lacks the model tag: %s", body)
	}
	if black.Samples != 96 || len(black.Thresholds) == 0 {
		t.Fatalf("blackbox sweep produced no verdicts: %+v", black)
	}

	resp, body = postJSON(t, ts.URL+"/v1/threshold", smallSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("roofline status = %d, body %s", resp.StatusCode, body)
	}
	var roof ThresholdResponse
	decodeEnvelope(t, body, SchemaThreshold, &roof)
	if roof.Cached {
		t.Fatal("roofline request hit the blackbox cache entry — model missing from the key")
	}
	if roof.Key == black.Key {
		t.Fatal("roofline and blackbox sweeps share a cache key")
	}
	if strings.Contains(body, `"model"`) {
		t.Fatalf("roofline body grew a model field: %s", body)
	}
}

func TestThresholdUnknownModel(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := `{"system":"dawn","kernel":"gemm","precision":"f32","model":"psychic"}`
	resp, body := postJSON(t, ts.URL+"/v1/threshold", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "model") {
		t.Fatalf("error body %q does not mention the model", body)
	}
}

// TestAdviseModelBlackbox: advise verdicts under the blackbox model come
// from the tables (timings differ from roofline), the response is tagged,
// and the roofline response stays untagged.
func TestAdviseModelBlackbox(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	call := `{"kernel":"gemm","m":256,"n":256,"k":256,"precision":"f32","count":4,"movement":"once"}`
	roofReq := `{"systems":["isambard-ai"],"calls":[` + call + `]}`
	blackReq := `{"systems":["isambard-ai"],"model":"blackbox","calls":[` + call + `]}`

	resp, body := postJSON(t, ts.URL+"/v1/advise", roofReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("roofline status = %d, body %s", resp.StatusCode, body)
	}
	var roof AdviseResponse
	decodeEnvelope(t, body, SchemaAdvise, &roof)
	if roof.Model != "" || strings.Contains(body, `"model"`) {
		t.Fatalf("roofline advise grew a model field: %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/advise", blackReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blackbox status = %d, body %s", resp.StatusCode, body)
	}
	var black AdviseResponse
	decodeEnvelope(t, body, SchemaAdvise, &black)
	if black.Model != "blackbox" {
		t.Fatalf("blackbox advise model = %q", black.Model)
	}
	if len(roof.Verdicts) != 1 || len(black.Verdicts) != 1 {
		t.Fatalf("verdict counts: roofline %d, blackbox %d", len(roof.Verdicts), len(black.Verdicts))
	}
	if roof.Verdicts[0].CPUSeconds == black.Verdicts[0].CPUSeconds { //blobvet:allow floatcompare -- any bitwise difference proves the table path ran; no tolerance wanted
		t.Fatal("blackbox CPU timing identical to roofline — tables were not consulted")
	}

	resp, body = postJSON(t, ts.URL+"/v1/advise", `{"calls":[`+call+`],"model":"psychic"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown model status = %d, body %s", resp.StatusCode, body)
	}
}
