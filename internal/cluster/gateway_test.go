package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/service"
	"repro/pkg/blobclient"
)

// startGateway builds a gateway over an already-started replica
// cluster and returns its httptest server.
func startGateway(t *testing.T, nodes []*testNode) (*Gateway, *httptest.Server) {
	t.Helper()
	return startGatewayOpts(t, nodes, GatewayOptions{})
}

// startGatewayOpts is startGateway with explicit gateway options (the
// hedging and deadline tests need them).
func startGatewayOpts(t *testing.T, nodes []*testNode, opts GatewayOptions) (*Gateway, *httptest.Server) {
	t.Helper()
	members := make([]Member, len(nodes))
	for i, tn := range nodes {
		members[i] = Member{Name: tn.name, URL: tn.ts.URL}
	}
	pool, err := NewGatewayPool(Options{
		Members:      members,
		DownAfter:    2,
		ProbeTimeout: 2 * time.Second,
		Breaker:      testBreaker,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGateway(pool, opts)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	return g, ts
}

func postJSON(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGatewayRoutesToOwner: identical threshold requests always land on
// the ring owner (X-Blob-Peer pins it), so one replica's cache serves
// the whole shard — and the cluster computes exactly one sweep.
func TestGatewayRoutesToOwner(t *testing.T) {
	nodes := startCluster(t, 3)
	_, ts := startGateway(t, nodes)
	ring := nodes[0].node.Pool().Ring()
	req, key := reqOwnedBy(t, ring, nodes[2].name)
	body := mustMarshal(t, req)

	for i := 0; i < 4; i++ {
		resp := postJSON(t, ts.URL+"/v1/threshold", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if peer := resp.Header.Get("X-Blob-Peer"); peer != ring.Owner(key) {
			t.Fatalf("request %d served by %q, want owner %q", i, peer, ring.Owner(key))
		}
		resp.Body.Close()
	}
	var total int64
	for _, tn := range nodes {
		total += tn.sweeps.Load()
	}
	if total != 1 {
		t.Fatalf("cluster ran %d sweeps for one shard, want 1", total)
	}
	if got := nodes[2].sweeps.Load(); got != 1 {
		t.Fatalf("owner ran %d sweeps, want 1", got)
	}
}

// TestGatewayFailover: with the owner dead, the gateway reroutes to the
// next ring owner and still answers 200; the dead peer's breaker opens
// so later requests skip it without a dial; after revival and the
// breaker's probe window, traffic returns to the owner.
func TestGatewayFailover(t *testing.T) {
	nodes := startCluster(t, 3)
	g, ts := startGateway(t, nodes)
	ring := nodes[0].node.Pool().Ring()
	req, key := reqOwnedBy(t, ring, nodes[1].name)
	body := mustMarshal(t, req)
	owners := ring.Owners(key, 3)

	nodes[1].kill()
	resp := postJSON(t, ts.URL+"/v1/threshold", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request: status %d", resp.StatusCode)
	}
	if peer := resp.Header.Get("X-Blob-Peer"); peer != owners[1] {
		t.Fatalf("served by %q, want failover owner %q", peer, owners[1])
	}
	resp.Body.Close()
	if st := g.pool.Breaker(nodes[1].name).State(); st != resilience.Open {
		t.Fatalf("dead owner's breaker is %v, want open", st)
	}

	// Next request: the open breaker skips the dead owner without a dial.
	resp = postJSON(t, ts.URL+"/v1/threshold", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("skip request: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{"blob_gateway_reroutes_total 1", "blob_gateway_breaker_skips_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("gateway metrics missing %q:\n%s", want, metrics)
		}
	}

	nodes[1].revive()
	time.Sleep(testBreaker.OpenTimeout + 10*time.Millisecond)
	resp = postJSON(t, ts.URL+"/v1/threshold", body)
	if peer := resp.Header.Get("X-Blob-Peer"); peer != owners[0] {
		t.Fatalf("after revival served by %q, want owner %q", peer, owners[0])
	}
	resp.Body.Close()
}

// TestGatewayBreakerDiscipline: replica-level 4xx answers and
// client-side cancellation must never trip a peer's breaker — only
// transport failures speak to peer health.
func TestGatewayBreakerDiscipline(t *testing.T) {
	nodes := startCluster(t, 3)
	g, ts := startGateway(t, nodes)

	// A dispatch batch for an unknown system routes fine (routing is by
	// name) but the replica answers 400. Hammer it: breakers stay closed.
	bad := []byte(`{"system":"no-such-system","calls":[{"kernel":"gemm","m":8,"n":8,"k":8,"precision":"f64"}]}`)
	var servedBy string
	for i := 0; i < 6; i++ {
		resp := postJSON(t, ts.URL+"/v1/dispatch", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 relayed from the replica", resp.StatusCode)
		}
		servedBy = resp.Header.Get("X-Blob-Peer")
		resp.Body.Close()
	}
	if st := g.pool.Breaker(servedBy).State(); st != resilience.Closed {
		t.Fatalf("6 relayed 400s left %s's breaker %v, want closed", servedBy, st)
	}

	// Client cancellation mid-request: the serving peer's breaker must
	// not record a failure.
	req, _ := reqOwnedBy(t, nodes[0].node.Pool().Ring(), nodes[2].name)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/threshold", bytes.NewReader(mustMarshal(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(httpReq); err == nil {
		resp.Body.Close()
	}
	for _, tn := range nodes {
		if st := g.pool.Breaker(tn.name).State(); st != resilience.Closed {
			t.Fatalf("client cancellation left %s's breaker %v, want closed", tn.name, st)
		}
	}
}

// TestGatewayNoPeer: with every replica dead, the gateway answers the
// uniform rejection contract: 503, code no_peer, Retry-After mirrored.
func TestGatewayNoPeer(t *testing.T) {
	nodes := startCluster(t, 3)
	_, ts := startGateway(t, nodes)
	for _, tn := range nodes {
		tn.kill()
	}
	body := mustMarshal(t, thresholdReq(32))
	resp := postJSON(t, ts.URL+"/v1/threshold", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	var env struct {
		Schema string            `json:"schema"`
		Error  *service.APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Schema != service.SchemaError || env.Error == nil || env.Error.Code != "no_peer" {
		t.Fatalf("envelope %+v, want schema error with code no_peer", env)
	}
	if env.Error.RetryAfterS != 1 {
		t.Fatalf("retry_after_s %d does not mirror the header", env.Error.RetryAfterS)
	}
}

// TestGatewayRejectsBadRequests: garbage is rejected at the gateway
// with the replicas' own contract, before touching the ring.
func TestGatewayRejectsBadRequests(t *testing.T) {
	nodes := startCluster(t, 1)
	_, ts := startGateway(t, nodes)
	cases := []struct {
		path, body string
	}{
		{"/v1/threshold", `{"system":"dawn","kernel":"gemv","precision":"f64","bogus":1}`},
		{"/v1/threshold", `{"system":"no-such","kernel":"gemv","precision":"f64"}`},
		{"/v1/dispatch", `{"calls":[]}`},
		{"/v1/dispatch", `not json`},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+tc.path, []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %q: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// The retired pre-envelope advise alias is not routed.
	resp := postJSON(t, ts.URL+"/v0/advise", []byte(`{"calls":[]}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v0/advise: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	if got := nodes[0].sweeps.Load(); got != 0 {
		t.Fatalf("bad requests reached a replica backend (%d sweeps)", got)
	}
}

// TestGatewayHealthAndReady: the gateway speaks the same health
// contract as the replicas — /healthz is liveness, /readyz tracks
// whether any replica is in the ring.
func TestGatewayHealthAndReady(t *testing.T) {
	nodes := startCluster(t, 2)
	g, ts := startGateway(t, nodes)
	cl := blobclient.New(blobclient.Options{BaseURL: ts.URL})
	ctx := context.Background()

	if _, err := cl.Health(ctx); err != nil {
		t.Fatalf("gateway /healthz: %v", err)
	}
	ready, err := cl.Ready(ctx)
	if err != nil {
		t.Fatalf("gateway /readyz: %v", err)
	}
	if ready.Status != "ready" {
		t.Fatalf("ready status %q", ready.Status)
	}

	// Empty ring -> not ready (but still alive).
	for _, tn := range nodes {
		rep := Member{Name: tn.name, URL: tn.ts.URL}
		if err := g.pool.Apply(Message{Type: TypeLeave, From: rep}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Ready(ctx); err == nil || !strings.Contains(err.Error(), "not_ready") {
		t.Fatalf("empty ring readyz = %v, want not_ready", err)
	}
	if _, err := cl.Health(ctx); err != nil {
		t.Fatalf("gateway liveness followed readiness down: %v", err)
	}
}

// TestGatewayRouteOverhead is the cluster/route-overhead check in test
// form: routing a request to a replica whose cache already holds the
// shard must cost no more than a small multiple of asking that replica
// directly. The two paths are sampled interleaved on the same box, so a
// loaded host slows both alike and only the ratio is asserted; the
// absolute latencies are logged here and recorded by the cluster bench
// cases and the cluster-serve workload.
func TestGatewayRouteOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("latency ratio is calibrated without race-detector instrumentation; routing behaviour is covered by the other gateway tests")
	}
	nodes := startCluster(t, 3)
	_, ts := startGateway(t, nodes)
	req, _ := reqOwnedBy(t, nodes[0].node.Pool().Ring(), nodes[0].name)
	lat := interleavedLatencies(t, mustMarshal(t, req), nodes[0].ts.URL, ts.URL)
	direct, routed := lat[0], lat[1]
	t.Logf("direct to owner: p50 %.3fms p99 %.3fms; via gateway: p50 %.3fms p99 %.3fms",
		quantile(direct, 0.5)*1e3, quantile(direct, 0.99)*1e3,
		quantile(routed, 0.5)*1e3, quantile(routed, 0.99)*1e3)
	if r := quantile(routed, 0.5) / quantile(direct, 0.5); r > maxRouteRatio {
		t.Errorf("gateway p50 is %.1fx the direct p50, want <= %.0fx", r, maxRouteRatio)
	}
}

// maxRouteRatio bounds gateway p50 over direct-to-owner p50. The gateway
// adds one loopback hop in front of the replica, so the healthy ratio
// sits near 2; a millisecond of extra work on the routing path pushes it
// past 5.
const maxRouteRatio = 4.0

// interleavedLatencies posts body to /v1/threshold at each base URL in
// turn, round-robin, so every target is sampled under the same host
// load, and returns each target's sorted latencies in seconds. Every
// answer must be 200. Warm-up rounds fill caches and keep-alive pools
// and are not recorded.
func interleavedLatencies(t *testing.T, body []byte, urls ...string) [][]float64 {
	t.Helper()
	const warm, reps = 20, 200
	lat := make([][]float64, len(urls))
	for i := 0; i < warm+reps; i++ {
		for u, url := range urls {
			began := time.Now()
			resp := postJSON(t, url+"/v1/threshold", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s rep %d: status %d", url, i, resp.StatusCode)
			}
			// Drain so the keep-alive connection is reused; otherwise every
			// rep pays a fresh dial and the tail measures TCP, not routing.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if i >= warm {
				lat[u] = append(lat[u], time.Since(began).Seconds())
			}
		}
	}
	for _, l := range lat {
		sort.Float64s(l)
	}
	return lat
}

// quantile returns the q-quantile of sorted latencies.
func quantile(sorted []float64, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1))]
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDispatchSystem: the dispatch route key is the batch's system,
// found wherever it sits among the top-level keys (matched like
// encoding/json matches field names, case-insensitively); a body with
// no string system yields "" and a 400 at the gateway. Scanning stops at
// system, so bytes after it are left to the replica's strict decode.
func TestDispatchSystem(t *testing.T) {
	cases := []struct{ body, want string }{
		{`{"system":"dawn","calls":[{"kernel":"gemm","m":1}]}`, "dawn"},
		{`{"calls":[{"kernel":"gemm","m":1,"n":2}],"system":"lumi"}`, "lumi"},
		{`{"System":"isambard-ai"}`, "isambard-ai"},
		{`{"system":"dawn","calls":[` + "\x00", "dawn"},
		{`{"calls":[]}`, ""},
		{`{"system":5}`, ""},
		{`{"system":""}`, ""},
		{`["system","dawn"]`, ""},
		{`{"calls":[1,}`, ""},
		{`not json`, ""},
		{``, ""},
	}
	for _, tc := range cases {
		if got := dispatchSystem([]byte(tc.body)); got != tc.want {
			t.Errorf("dispatchSystem(%q) = %q, want %q", tc.body, got, tc.want)
		}
	}
}
