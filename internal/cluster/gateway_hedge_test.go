package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/service"
)

// slowNode wraps a test node's handler with a fixed delay, simulating a
// replica that is alive but slow (GC pause, overloaded box, bad NIC).
// Peer-fill hops are exempt so the hedge target can still fill the
// shard from the slow owner quickly — the test models a slow public
// path, not a slow replica core.
func slowNode(tn *testNode, d time.Duration) {
	inner := tn.sh.h.Load().(http.HandlerFunc)
	tn.sh.h.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(service.PeerFillHeader) == "" {
			time.Sleep(d)
		}
		inner.ServeHTTP(w, r)
	}))
}

// TestGatewayRerouteMidDrain: a draining ring owner answers 503
// not_ready to health probes; after DownAfter probes it leaves the
// gateway's ring and its shards land on the next owner — without the
// drained peer's breaker tripping, because a drain is an orderly
// goodbye, not an outage. When the drain is a rolling restart, a tripped
// breaker would make the revived replica eat an OpenTimeout of skips it
// never earned.
func TestGatewayRerouteMidDrain(t *testing.T) {
	nodes := startCluster(t, 3)
	g, ts := startGateway(t, nodes)
	ring := nodes[0].node.Pool().Ring()
	req, key := reqOwnedBy(t, ring, nodes[1].name)
	owners := ring.Owners(key, 3)
	body := mustMarshal(t, req)

	ctx := context.Background()
	nodes[1].node.Drain(ctx)
	// Two probe rounds: DownAfter consecutive not_ready answers take the
	// draining owner out of the gateway's ring.
	g.pool.CheckNow(ctx)
	g.pool.CheckNow(ctx)
	if g.pool.Healthy(nodes[1].name) {
		t.Fatal("draining owner still healthy after two probe rounds")
	}

	resp := postJSON(t, ts.URL+"/v1/threshold", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-drain request: status %d", resp.StatusCode)
	}
	if peer := resp.Header.Get("X-Blob-Peer"); peer != owners[1] {
		t.Fatalf("served by %q, want next owner %q", peer, owners[1])
	}
	resp.Body.Close()
	if st := g.pool.Breaker(nodes[1].name).State(); st != resilience.Closed {
		t.Fatalf("draining peer's breaker is %v, want closed (drain is not an outage)", st)
	}
}

// TestGatewayHedgeWin: with hedging armed and the primary owner slow, a
// hedge fires to the next ring owner and its answer is relayed first.
// The slow primary is cancelled — and, being alive, its breaker stays
// closed: losing a race is not a transport failure.
func TestGatewayHedgeWin(t *testing.T) {
	nodes := startCluster(t, 3)
	g, ts := startGatewayOpts(t, nodes, GatewayOptions{Hedge: true, HedgeAfter: 20 * time.Millisecond})
	ring := nodes[0].node.Pool().Ring()
	req, key := reqOwnedBy(t, ring, nodes[1].name)
	owners := ring.Owners(key, 3)
	body := mustMarshal(t, req)

	slowNode(nodes[1], 400*time.Millisecond)
	began := time.Now()
	resp := postJSON(t, ts.URL+"/v1/threshold", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request: status %d", resp.StatusCode)
	}
	if peer := resp.Header.Get("X-Blob-Peer"); peer != owners[1] {
		t.Fatalf("served by %q, want hedge target %q", peer, owners[1])
	}
	resp.Body.Close()
	if took := time.Since(began); took >= 400*time.Millisecond {
		t.Fatalf("hedged request took %v — it waited out the slow primary", took)
	}

	metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{"blob_gateway_hedges_total 1", "blob_gateway_hedge_wins_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("gateway metrics missing %q:\n%s", want, metrics)
		}
	}
	// The cancelled loser proves nothing about peer health.
	if st := g.pool.Breaker(nodes[1].name).State(); st != resilience.Closed {
		t.Fatalf("losing primary's breaker is %v, want closed", st)
	}
	// Dispatch must never hedge, slow owner or not: a hedge would copy the
	// batch to a replica whose memo for that system is cold.
	dispatch := []byte(`{"system":"dawn","calls":[{"kernel":"gemm","m":8,"n":8,"k":8,"precision":"f64"}]}`)
	resp = postJSON(t, ts.URL+"/v1/dispatch", dispatch)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	metrics = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "blob_gateway_hedges_total 1") {
		t.Errorf("dispatch route hedged:\n%s", metrics)
	}
}

// TestGatewayDeadlineDecrement: the gateway forwards the remaining
// deadline budget, not the client's original number — the replica's
// view of "time left" must account for time already burned upstream.
func TestGatewayDeadlineDecrement(t *testing.T) {
	nodes := startCluster(t, 1)
	_, ts := startGateway(t, nodes)

	var seen syncString
	inner := nodes[0].sh.h.Load().(http.HandlerFunc)
	nodes[0].sh.h.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/threshold" {
			seen.Store(r.Header.Get("X-Deadline-Ms"))
		}
		inner.ServeHTTP(w, r)
	}))

	body := mustMarshal(t, thresholdReq(32))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/threshold", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Deadline-Ms", "5000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got, err := strconv.Atoi(seen.Load())
	if err != nil {
		t.Fatalf("replica saw X-Deadline-Ms %q, want an integer", seen.Load())
	}
	if got >= 5000 || got <= 4000 {
		t.Fatalf("replica saw budget %d ms, want decremented from 5000 but not gutted", got)
	}

	// A malformed header is the client's error: forwarded verbatim so the
	// replica answers its canonical 400, never silently repaired.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/threshold", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Deadline-Ms", "soon")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline: status %d, want 400 from the replica", resp.StatusCode)
	}
	if seen.Load() != "soon" {
		t.Fatalf("replica saw %q, want the malformed header forwarded verbatim", seen.Load())
	}
}

// TestGatewayDeadlineExhausted: a budget the gateway has already spent
// answers 504 deadline_exceeded locally — forwarding would burn a
// replica slot on an answer nobody can use.
func TestGatewayDeadlineExhausted(t *testing.T) {
	nodes := startCluster(t, 1)
	_, ts := startGateway(t, nodes)
	before := nodes[0].sweeps.Load()

	body := mustMarshal(t, thresholdReq(40))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/threshold", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Deadline-Ms", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var env struct {
		Schema string            `json:"schema"`
		Error  *service.APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != "deadline_exceeded" {
		t.Fatalf("envelope %+v, want code deadline_exceeded", env)
	}
	if got := nodes[0].sweeps.Load(); got != before {
		t.Fatalf("exhausted-budget request still reached the replica backend (%d sweeps)", got-before)
	}
	metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "blob_gateway_deadline_exhausted_total 1") {
		t.Errorf("metrics missing deadline counter:\n%s", metrics)
	}
}

// TestGatewayHedgeOverhead: arming hedging must be free when nothing is
// slow — the timer is the only addition to the happy path, and it never
// fires against a healthy cached shard. A hedge-armed gateway, an
// unarmed one and the owner replica itself are sampled interleaved on
// the same box; the armed gateway must match the unarmed one and stay
// within TestGatewayRouteOverhead's bound of the direct path.
func TestGatewayHedgeOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("latency ratio is calibrated without race-detector instrumentation; hedging behaviour is covered by TestGatewayHedgeWin")
	}
	nodes := startCluster(t, 3)
	_, armed := startGatewayOpts(t, nodes, GatewayOptions{Hedge: true})
	_, unarmed := startGateway(t, nodes)
	req, _ := reqOwnedBy(t, nodes[0].node.Pool().Ring(), nodes[0].name)
	lat := interleavedLatencies(t, mustMarshal(t, req), nodes[0].ts.URL, unarmed.URL, armed.URL)
	direct, plain, hedged := quantile(lat[0], 0.5), quantile(lat[1], 0.5), quantile(lat[2], 0.5)
	t.Logf("p50/p99: direct %.3f/%.3fms, unarmed %.3f/%.3fms, hedging-armed %.3f/%.3fms",
		direct*1e3, quantile(lat[0], 0.99)*1e3, plain*1e3, quantile(lat[1], 0.99)*1e3,
		hedged*1e3, quantile(lat[2], 0.99)*1e3)
	if r := hedged / plain; r > maxHedgeRatio {
		t.Errorf("hedging-armed p50 is %.2fx the unarmed p50, want <= %.1fx", r, maxHedgeRatio)
	}
	if r := hedged / direct; r > maxRouteRatio {
		t.Errorf("hedging-armed p50 is %.1fx the direct p50, want <= %.0fx", r, maxRouteRatio)
	}
}

// maxHedgeRatio bounds hedge-armed over unarmed gateway p50. Both take
// the same path; arming the hedge timer costs a few tens of microseconds
// (a ratio near 1.3), while a millisecond of extra work on the hedged
// path pushes it past 4.
const maxHedgeRatio = 2.0

// syncString is a tiny typed wrapper so tests can record a header
// from a handler goroutine without a data race.
type syncString struct {
	mu sync.Mutex
	s  string
}

func (a *syncString) Store(s string) { a.mu.Lock(); a.s = s; a.mu.Unlock() }
func (a *syncString) Load() string   { a.mu.Lock(); defer a.mu.Unlock(); return a.s }
