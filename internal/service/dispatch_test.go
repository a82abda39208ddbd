package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/sim/systems"
)

// dispatchBatch builds a dispatch request body of calls cycling through
// `distinct` GEMM shapes.
func dispatchBatch(system string, calls, distinct int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"system":%q,"calls":[`, system)
	for i := 0; i < calls; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		m := 16 + 4*(i%distinct)
		fmt.Fprintf(&b, `{"kernel":"gemm","m":%d,"n":64,"k":64,"precision":"f64","count":1,"movement":"once"}`, m)
	}
	b.WriteString(`]}`)
	return b.String()
}

func TestDispatchHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"system":"isambard-ai","calls":[
	  {"kernel":"gemm","m":2048,"n":2048,"k":2048,"precision":"f32","count":32,"movement":"once"},
	  {"kernel":"gemv","m":8,"n":8,"precision":"f64","count":1,"movement":"always"},
	  {"kernel":"gemm","m":256,"n":256,"k":256,"precision":"f64","count":4,"movement":"usm","resident":true}
	]}`
	resp, raw := postJSON(t, ts.URL+"/v1/dispatch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var out DispatchResponse
	decodeEnvelope(t, raw, SchemaDispatch, &out)
	if out.System != "Isambard-AI" || len(out.Decisions) != 3 {
		t.Fatalf("response: %+v", out)
	}
	// Same directions the advise tests pin: the big GEMM offloads, the
	// tiny GEMV stays on the CPU.
	if out.Decisions[0].Device != "gpu" {
		t.Fatalf("large GEMM should route to the GPU: %+v", out.Decisions[0])
	}
	if out.Decisions[1].Device != "cpu" {
		t.Fatalf("tiny GEMV should stay on the CPU: %+v", out.Decisions[1])
	}
	for i, d := range out.Decisions {
		if d.CPUSeconds <= 0 || d.GPUSeconds <= 0 || d.Speedup <= 0 {
			t.Fatalf("decision %d has non-positive timings: %+v", i, d)
		}
	}
}

// TestDispatchBatchDedup is the issue's 5k-shape acceptance: a 5000-call
// batch cycling 250 distinct shapes, sent concurrently by four clients,
// evaluates the timing models exactly 250 times — every other decision
// is answered by the seen-shape cache or joins an in-flight evaluation
// through the dispatcher's singleflight.
func TestDispatchBatchDedup(t *testing.T) {
	const batchCalls, distinct, clients = 5000, 250, 4
	var evals atomic.Int64
	s, ts := newTestServer(t, Options{
		DispatchEvaluate: func(sys systems.System, c advisor.Call) (float64, float64) {
			evals.Add(1)
			return advisor.Times(sys, c)
		},
	})
	body := dispatchBatch("dawn", batchCalls, distinct)

	var wg sync.WaitGroup
	responses := make([]DispatchResponse, clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/dispatch", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var env wireEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				errs <- err
				return
			}
			errs <- json.Unmarshal(env.Data, &responses[i])
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := evals.Load(); got != distinct {
		t.Fatalf("model evaluations = %d, want exactly %d (the distinct shapes)", got, distinct)
	}
	totalHits := 0
	for i, r := range responses {
		if len(r.Decisions) != batchCalls {
			t.Fatalf("client %d got %d decisions, want %d", i, len(r.Decisions), batchCalls)
		}
		totalHits += r.CacheHits
	}
	// Across the four batches at most `distinct` decisions were computed
	// fresh; everything else must be marked as shared or cached.
	if want := clients*batchCalls - distinct; totalHits < want {
		t.Fatalf("cache_hits = %d across clients, want >= %d", totalHits, want)
	}
	if v := s.Metrics().DispatchDecisions.Value(); v != clients*batchCalls {
		t.Fatalf("dispatch decisions metric = %d, want %d", v, clients*batchCalls)
	}
	if v := s.Metrics().DispatchBatches.Value(); v != clients {
		t.Fatalf("dispatch batches metric = %d, want %d", v, clients)
	}
}

// TestDispatchMidBatchCancellation: a client that hangs up while its
// batch is being decided stops the batch mid-way — the handler observes
// the context between calls, stops evaluating, and records the abandoned
// batch (nginx's 499 convention, same as the threshold path).
func TestDispatchMidBatchCancellation(t *testing.T) {
	const stopAfter = 10
	evaluated := make(chan struct{}, 1<<16)
	release := make(chan struct{})
	var evals atomic.Int64
	s, ts := newTestServer(t, Options{
		DispatchEvaluate: func(sys systems.System, c advisor.Call) (float64, float64) {
			evaluated <- struct{}{}
			n := evals.Add(1)
			if n == stopAfter {
				<-release // hold the batch mid-decision until the client is gone
			}
			if n >= stopAfter {
				// Pace the tail of the batch so the server's detection of the
				// closed connection (asynchronous, via the background read)
				// always lands while the batch is still in progress.
				time.Sleep(time.Millisecond)
			}
			return advisor.Times(sys, c)
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	body := dispatchBatch("dawn", 5000, 5000) // all distinct: every call evaluates
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/dispatch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	clientDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientDone <- err
	}()

	for i := 0; i < stopAfter; i++ {
		<-evaluated
	}
	cancel()
	if err := <-clientDone; err == nil {
		t.Fatal("cancelled client should see an error")
	}
	close(release)
	// The handler must notice the dead context between calls and abandon
	// the batch: abandoned is counted, the batch never completes, and the
	// bulk of the 4990 remaining evaluations never runs.
	waitFor(t, func() bool { return s.Metrics().DispatchAbandoned.Value() == 1 })
	if v := s.Metrics().DispatchBatches.Value(); v != 0 {
		t.Fatalf("abandoned batch counted as served: batches = %d", v)
	}
	if got := evals.Load(); got >= 2500 {
		t.Fatalf("evaluations after hangup: %d — the batch should stop mid-way, not run to completion", got)
	}
}

// TestDispatchStatePersistsAcrossRequests: the per-system dispatcher is
// long-lived, so a repeated batch is answered entirely from its cache.
func TestDispatchStatePersistsAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := dispatchBatch("dawn", 100, 100)
	resp, raw := postJSON(t, ts.URL+"/v1/dispatch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var first DispatchResponse
	decodeEnvelope(t, raw, SchemaDispatch, &first)

	_, raw = postJSON(t, ts.URL+"/v1/dispatch", body)
	var second DispatchResponse
	decodeEnvelope(t, raw, SchemaDispatch, &second)
	if second.CacheHits != 100 {
		t.Fatalf("replayed batch: cache_hits = %d, want 100", second.CacheHits)
	}
	for i := range second.Decisions {
		if second.Decisions[i].Device != first.Decisions[i].Device {
			t.Fatalf("decision %d changed across requests", i)
		}
	}
}

func TestDispatchBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxDispatchBatch: 8})
	cases := []struct {
		name, body, wantErr string
	}{
		{"no system", `{"calls":[{"kernel":"gemm","m":1,"n":1,"k":1,"precision":"f64","count":1,"movement":"once"}]}`, "system must be set"},
		{"unknown system", `{"system":"cray-1","calls":[{"kernel":"gemm","m":1,"n":1,"k":1,"precision":"f64","count":1,"movement":"once"}]}`, "unknown system"},
		{"no calls", `{"system":"dawn","calls":[]}`, "calls must not be empty"},
		{"bad call", `{"system":"dawn","calls":[{"kernel":"gemm","m":0,"n":1,"k":1,"precision":"f64","count":1,"movement":"once"}]}`, "calls[0]"},
		{"oversized batch", dispatchBatch("dawn", 9, 9), "exceeds the service limit"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/dispatch", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, body %s", tc.name, resp.StatusCode, body)
		}
		e := decodeAPIError(t, body)
		if !strings.Contains(e.Message, tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, e.Message, tc.wantErr)
		}
	}
}

// TestAdviseDeprecationAlias pins the advise contract after the
// deprecation window: /v1/advise answers the enveloped form and the
// retired pre-envelope /v0/advise alias answers 404.
func TestAdviseDeprecationAlias(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := `{"systems":["dawn"],"calls":[{"kernel":"gemm","m":512,"n":512,"k":512,"precision":"f64","count":8,"movement":"once"}]}`

	// v1: enveloped.
	resp, raw := postJSON(t, ts.URL+"/v1/advise", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 status = %d, body %s", resp.StatusCode, raw)
	}
	var v1 AdviseResponse
	decodeEnvelope(t, raw, SchemaAdvise, &v1)
	if len(v1.Verdicts) != 1 {
		t.Fatalf("v1 verdicts = %+v, want one", v1.Verdicts)
	}

	// The pre-envelope /v0/advise alias has been retired.
	resp, raw = postJSON(t, ts.URL+"/v0/advise", req)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("retired /v0/advise status = %d, body %s", resp.StatusCode, raw)
	}
}
