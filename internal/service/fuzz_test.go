package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// documentedErrorCodes reads the error codes docs/API.md's Errors section
// lists, so the fuzz target checks the server against the published
// contract rather than against a copy of it.
func documentedErrorCodes(t testing.TB) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Errors\n")
	if !ok {
		t.Fatal("docs/API.md has no Errors section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	// Odd segments are code spans; the codes are the lower_snake ones.
	codes := map[string]bool{}
	parts := strings.Split(section, "`")
	for i := 1; i < len(parts); i += 2 {
		if strings.Trim(parts[i], "abcdefghijklmnopqrstuvwxyz_") == "" {
			codes[parts[i]] = true
		}
	}
	if !codes["bad_request"] || !codes["queue_full"] {
		t.Fatalf("error codes parsed from docs/API.md look wrong: %v", codes)
	}
	return codes
}

// FuzzV1Body drives the three v1 POST endpoints with arbitrary bodies and
// arbitrary X-Deadline-Ms and X-Blob-Peer-Fill headers. Whatever arrives,
// the reply must be one compact envelope line: never a 500 (the panic
// recovery's answer), a 200 carries its endpoint's schema token, and any
// other status carries an error code docs/API.md lists.
func FuzzV1Body(f *testing.F) {
	codes := documentedErrorCodes(f)
	errFill := errors.New("no peer")
	s := New(Options{
		MaxSweepDim: 64,
		PeerFill: func(context.Context, ThresholdRequest, string) (*ThresholdResponse, error) {
			return nil, errFill
		},
	})
	f.Cleanup(s.Close)
	h := s.Handler()
	endpoints := []struct{ path, schema string }{
		{"/v1/advise", SchemaAdvise},
		{"/v1/threshold", SchemaThreshold},
		{"/v1/dispatch", SchemaDispatch},
	}

	f.Add(uint8(0), `{"systems":["dawn"],"calls":[{"kernel":"gemm","m":64,"n":64,"k":64,"precision":"f32","count":2,"movement":"once"}]}`, "", "")
	f.Add(uint8(0), `{"model":"blackbox","calls":[{"kernel":"gemv","m":512,"n":512,"precision":"f64","count":1,"movement":"usm"}]}`, "250", "")
	f.Add(uint8(1), `{"system":"dawn","kernel":"gemv","precision":"f64","config":{"max_dim":32,"iterations":4}}`, "", "")
	f.Add(uint8(1), `{"system":"lumi","kernel":"gemm","problem":"square","precision":"f32","model":"blackbox","config":{"max_dim":100000}}`, "1", "peer-a")
	f.Add(uint8(1), `{"system":"dawn","kernel":"gemm","precision":"f64","config":{"min_dim":9,"max_dim":3,"step":0}}`, "-5", "")
	f.Add(uint8(2), `{"system":"isambard-ai","calls":[{"kernel":"gemm","m":16,"n":64,"k":64,"precision":"f64","count":1,"movement":"once"}]}`, "x", "")
	f.Add(uint8(2), `{"system":"dawn","calls":[]}`, "", "peer-b")
	f.Add(uint8(0), `{"calls":[{"kernel":"gemm","m":-1}]} trailing`, "", "")
	f.Add(uint8(1), `not json`, "99999999999999999999", "")
	f.Add(uint8(2), "{\"system\":\"\xff\"}", "", "\x00")

	f.Fuzz(func(t *testing.T, which uint8, body, deadline, peerFill string) {
		ep := endpoints[int(which)%len(endpoints)]
		req := httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		// Header values with bytes net/http would refuse on the wire are
		// not requests a server can receive; skip rather than set them.
		for name, v := range map[string]string{"X-Deadline-Ms": deadline, PeerFillHeader: peerFill} {
			if v != "" && !strings.ContainsAny(v, "\x00\r\n") {
				req.Header.Set(name, v)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		reply := rec.Body.Bytes()
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s: 500 for body %q: %s", ep.path, body, reply)
		}
		if n := bytes.IndexByte(reply, '\n'); n != len(reply)-1 {
			t.Fatalf("%s %d: reply is not one newline-terminated line: %q", ep.path, rec.Code, reply)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, reply); err != nil || compact.Len() != len(reply)-1 {
			t.Fatalf("%s %d: reply is not compact JSON (%v): %q", ep.path, rec.Code, err, reply)
		}
		var env wireEnvelope
		if err := json.Unmarshal(reply, &env); err != nil {
			t.Fatalf("%s %d: non-envelope reply %q: %v", ep.path, rec.Code, reply, err)
		}
		switch {
		case rec.Code == http.StatusOK:
			if env.Schema != ep.schema || env.Data == nil || env.Error != nil {
				t.Fatalf("%s: 200 with a malformed success envelope: %s", ep.path, reply)
			}
		case env.Schema != SchemaError || env.Error == nil:
			t.Fatalf("%s %d: failure without an error envelope: %s", ep.path, rec.Code, reply)
		case !codes[env.Error.Code]:
			t.Fatalf("%s %d: error code %q is not listed in docs/API.md: %s", ep.path, rec.Code, env.Error.Code, reply)
		}
	})
}
