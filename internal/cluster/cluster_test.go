package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/sim/systems"
	"repro/pkg/blobclient"
)

// testNode is one in-process replica: a Node behind an httptest server
// whose handler can be "killed" (panic http.ErrAbortHandler, which the
// client sees as a transport error — a realistic dead peer) and
// revived without changing its URL, which is what makes kill/rejoin
// testable over httptest at all.
type testNode struct {
	name   string
	node   *Node
	ts     *httptest.Server
	sh     *swapHandler
	killed atomic.Bool
	sweeps atomic.Int64
}

type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

func (tn *testNode) kill()   { tn.killed.Store(true) }
func (tn *testNode) revive() { tn.killed.Store(false) }

// testBreaker trips after one observed failure and recovers fast, so
// tests converge in a few probe rounds.
var testBreaker = resilience.BreakerConfig{
	MinRequests: 1, FailureRatio: 0.5, OpenTimeout: 50 * time.Millisecond,
}

// startCluster boots n replicas wired into one cluster (static roster,
// peer fill enabled, heartbeat loop off — tests drive CheckNow).
func startCluster(t *testing.T, n int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	members := make([]Member, n)
	for i := range nodes {
		tn := &testNode{name: fmt.Sprintf("rep-%d", i), sh: &swapHandler{}}
		tn.sh.h.Store(http.NotFoundHandler())
		tn.ts = httptest.NewServer(tn.sh)
		t.Cleanup(tn.ts.Close)
		nodes[i] = tn
		members[i] = Member{Name: tn.name, URL: tn.ts.URL}
	}
	for _, tn := range nodes {
		tn := tn
		pool, err := NewPool(Options{
			Self:         tn.name,
			Members:      members,
			DownAfter:    2,
			ProbeTimeout: 2 * time.Second,
			Breaker:      testBreaker,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Options{
			Workers:   2,
			CacheSize: 64,
			Sweep:     countingSweep(&tn.sweeps),
			PeerFill:  pool.FillThreshold(),
		})
		tn.node = NewNode(pool, svc)
		waitArmed(t, tn.name, svc)
		handler := tn.node.Handler()
		tn.sh.h.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tn.killed.Load() {
				panic(http.ErrAbortHandler)
			}
			handler.ServeHTTP(w, r)
		}))
		t.Cleanup(tn.node.Close)
	}
	return nodes
}

// waitArmed returns once svc reports ready. A replica answers /readyz
// with 503 "not_ready" until its worker goroutines have started, and a
// probe that lands first counts as a miss: on a busy host two such
// misses took a healthy replica out of a test's ring.
func waitArmed(t *testing.T, name string, svc *service.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok, reason := svc.Ready()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not ready after 10s: %s", name, reason)
		}
		time.Sleep(time.Millisecond)
	}
}

func countingSweep(n *atomic.Int64) service.SweepFunc {
	return func(ctx context.Context, sys systems.System, pts []core.ProblemType, precs []core.Precision, cfg core.Config) ([]*core.Series, error) {
		n.Add(1)
		return core.Run(ctx, sys, pts, precs, cfg)
	}
}

func testClient(tn *testNode) *blobclient.Client {
	return blobclient.New(blobclient.Options{
		BaseURL: tn.ts.URL,
		Breaker: resilience.BreakerConfig{MinRequests: 1 << 30},
	})
}

// thresholdReq builds a cheap, real threshold request whose identity
// varies with maxDim.
func thresholdReq(maxDim int) service.ThresholdRequest {
	return service.ThresholdRequest{
		System: "dawn", Kernel: "gemv", Precision: "f64",
		Config: service.SweepConfigRequest{MaxDim: maxDim, Step: 8, Iterations: 2},
	}
}

// reqOwnedBy scans maxDim values until it finds a request whose ring
// owner is the wanted member, plus the request's route key.
func reqOwnedBy(t *testing.T, ring *Ring, owner string) (service.ThresholdRequest, string) {
	t.Helper()
	for maxDim := 16; maxDim <= 4096; maxDim += 8 {
		req := thresholdReq(maxDim)
		key, err := service.ThresholdRouteKey(req, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(key) == owner {
			return req, key
		}
	}
	t.Fatalf("no request found with owner %s", owner)
	return service.ThresholdRequest{}, ""
}

func pickNonOwner(t *testing.T, nodes []*testNode, owner string) *testNode {
	t.Helper()
	for _, tn := range nodes {
		if tn.name != owner {
			return tn
		}
	}
	t.Fatal("no non-owner node")
	return nil
}

// TestPeerFill: a replica that misses its local cache asks the shard's
// ring owner instead of sweeping; exactly one sweep runs cluster-wide,
// the response carries filled_from, and the filled result is cached
// locally for the next hit.
func TestPeerFill(t *testing.T) {
	nodes := startCluster(t, 3)
	ring := nodes[0].node.Pool().Ring()
	req, _ := reqOwnedBy(t, ring, nodes[1].name)
	other := pickNonOwner(t, nodes, nodes[1].name)

	ctx := context.Background()
	resp, err := testClient(other).Threshold(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.FilledFrom != nodes[1].name {
		t.Fatalf("filled_from = %q, want %q", resp.FilledFrom, nodes[1].name)
	}
	if got := nodes[1].sweeps.Load(); got != 1 {
		t.Fatalf("owner ran %d sweeps, want 1", got)
	}
	if got := other.sweeps.Load(); got != 0 {
		t.Fatalf("non-owner ran %d sweeps, want 0 (peer fill)", got)
	}

	// Second identical request at the same replica: a plain local cache
	// hit, no second fill.
	resp2, err := testClient(other).Threshold(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatal("second request was not served from the local cache")
	}
	a, _ := json.Marshal(resp.Thresholds)
	b, _ := json.Marshal(resp2.Thresholds)
	if string(a) != string(b) {
		t.Fatalf("filled and cached verdicts diverge:\n%s\n%s", a, b)
	}
}

// TestPeerFillLoopGuard: a request that is itself a peer fill must be
// answered from local state only — the receiving replica sweeps
// locally rather than fanning out another fill.
func TestPeerFillLoopGuard(t *testing.T) {
	nodes := startCluster(t, 3)
	ring := nodes[0].node.Pool().Ring()
	// Owned by rep-1, but sent (marked as a fill) to a different node:
	// without the guard the receiver would fill from rep-1.
	req, _ := reqOwnedBy(t, ring, nodes[1].name)
	other := pickNonOwner(t, nodes, nodes[1].name)

	resp, err := testClient(other).ThresholdPeer(context.Background(), req, "test-origin")
	if err != nil {
		t.Fatal(err)
	}
	if resp.FilledFrom != "" {
		t.Fatalf("fill request was itself filled from %q; loop guard broken", resp.FilledFrom)
	}
	if got := other.sweeps.Load(); got != 1 {
		t.Fatalf("receiver ran %d sweeps, want 1 (local compute)", got)
	}
	if got := nodes[1].sweeps.Load(); got != 0 {
		t.Fatalf("ring owner ran %d sweeps, want 0", got)
	}
}

// TestPeerFillFallback: with the shard owner dead, the requesting
// replica falls back to a local sweep and still answers 200 — a fill
// failure degrades latency, never availability or the verdict.
func TestPeerFillFallback(t *testing.T) {
	nodes := startCluster(t, 3)
	ring := nodes[0].node.Pool().Ring()
	req, _ := reqOwnedBy(t, ring, nodes[1].name)
	other := pickNonOwner(t, nodes, nodes[1].name)

	// Reference verdict before the kill.
	ref, err := testClient(nodes[1]).Threshold(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	nodes[1].kill()
	resp, err := testClient(other).Threshold(context.Background(), req)
	if err != nil {
		t.Fatalf("request failed with owner dead: %v", err)
	}
	if resp.FilledFrom != "" {
		t.Fatalf("filled_from = %q with the owner dead", resp.FilledFrom)
	}
	if got := other.sweeps.Load(); got != 1 {
		t.Fatalf("fallback ran %d local sweeps, want 1", got)
	}
	a, _ := json.Marshal(ref.Thresholds)
	b, _ := json.Marshal(resp.Thresholds)
	if string(a) != string(b) {
		t.Fatalf("fallback verdict diverges from owner verdict:\n%s\n%s", a, b)
	}
}

// TestHealthKillRejoin: probes take a dead peer out of the ring after
// DownAfter misses (its breaker opens on the first), and one successful
// probe after revival puts it back — deterministic ring rebuild on
// member loss and rejoin.
func TestHealthKillRejoin(t *testing.T) {
	nodes := startCluster(t, 3)
	pool := nodes[0].node.Pool()
	ctx := context.Background()
	before := pool.Ring().Fingerprint()

	nodes[1].kill()
	pool.CheckNow(ctx)
	if !pool.Healthy("rep-1") {
		t.Fatal("one miss already marked rep-1 down; DownAfter=2 ignored")
	}
	pool.CheckNow(ctx)
	if pool.Healthy("rep-1") {
		t.Fatal("rep-1 still healthy after DownAfter misses")
	}
	if got := pool.Ring().Members(); len(got) != 2 {
		t.Fatalf("ring members = %v, want 2", got)
	}
	if br := pool.Breaker("rep-1"); br.State() != resilience.Open {
		t.Fatalf("dead peer's breaker is %v, want open", br.State())
	}

	nodes[1].revive()
	time.Sleep(testBreaker.OpenTimeout + 10*time.Millisecond) // past the probe window
	pool.CheckNow(ctx)
	if !pool.Healthy("rep-1") {
		t.Fatal("rep-1 not healthy after revival probe")
	}
	if after := pool.Ring().Fingerprint(); after != before {
		t.Fatalf("rejoin ring %q differs from original %q; rebuild not deterministic", after, before)
	}
}

// TestApplyMembership: hello/leave/heartbeat messages fold into the
// table — leave removes a member from the ring immediately, hello
// restores it, and an unknown member can be introduced by hello.
func TestApplyMembership(t *testing.T) {
	nodes := startCluster(t, 3)
	pool := nodes[0].node.Pool()

	rep1 := Member{Name: "rep-1", URL: nodes[1].ts.URL}
	if err := pool.Apply(Message{Type: TypeLeave, From: rep1}); err != nil {
		t.Fatal(err)
	}
	if pool.Healthy("rep-1") {
		t.Fatal("rep-1 still in the ring after leave")
	}
	if err := pool.Apply(Message{Type: TypeHello, From: rep1}); err != nil {
		t.Fatal(err)
	}
	if !pool.Healthy("rep-1") {
		t.Fatal("rep-1 not back after hello")
	}

	extra := Member{Name: "rep-9", URL: nodes[1].ts.URL}
	if err := pool.Apply(Message{Type: TypeHello, From: extra}); err != nil {
		t.Fatal(err)
	}
	if !pool.Healthy("rep-9") {
		t.Fatal("hello did not introduce rep-9")
	}
	if err := pool.Apply(Message{Type: "bogus", From: rep1}); err == nil {
		t.Fatal("Apply accepted an invalid message")
	}
}

// TestDrainOrder pins the drain sequence: after Drain, peers have
// dropped the member from their rings (ring-leave, via the leave
// broadcast) and its /readyz answers 503 not_ready — while /healthz
// stays green and in-flight traffic still completes. Close then stamps
// blob_drain_seconds.
func TestDrainOrder(t *testing.T) {
	nodes := startCluster(t, 3)
	draining := nodes[0]
	ctx := context.Background()

	// An in-flight-style request issued after BeginDrain must still be
	// served: drain means "stop routing to me", not "refuse".
	draining.node.Drain(ctx)

	for _, other := range nodes[1:] {
		if other.node.Pool().Healthy("rep-0") {
			t.Fatalf("%s still routes to rep-0 after its leave broadcast", other.name)
		}
	}
	if _, err := testClient(draining).Ready(ctx); err == nil {
		t.Fatal("/readyz still 200 during drain")
	} else if !strings.Contains(err.Error(), "not_ready") {
		t.Fatalf("/readyz error %v, want code not_ready", err)
	}
	if _, err := testClient(draining).Health(ctx); err != nil {
		t.Fatalf("/healthz went unhealthy during drain (liveness must not follow readiness): %v", err)
	}
	if _, err := testClient(draining).Threshold(ctx, thresholdReq(32)); err != nil {
		t.Fatalf("request during drain failed: %v", err)
	}

	svc := draining.node.Service()
	svc.Close()
	if got := svc.Metrics().DrainSeconds(); got <= 0 {
		t.Fatalf("blob_drain_seconds = %g after drain+close, want > 0", got)
	}
	mets := httptest.NewRecorder()
	svc.Handler().ServeHTTP(mets, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mets.Body.String(), "blob_drain_seconds") {
		t.Fatal("/metrics does not render blob_drain_seconds")
	}
}

// TestFillBreakerRefusal: once a dead owner's breaker is open, fill
// attempts are refused without touching the network and the caller
// falls back locally; the breaker's half-open probe window later lets
// fills recover.
func TestFillBreakerRefusal(t *testing.T) {
	nodes := startCluster(t, 3)
	other := pickNonOwner(t, nodes, nodes[1].name)
	pool := other.node.Pool()
	req, key := reqOwnedBy(t, pool.Ring(), nodes[1].name)

	nodes[1].kill()
	// Trip rep-1's breaker on this pool via one failed fill attempt
	// (MinRequests 1).
	fill := pool.FillThreshold()
	if _, err := fill(context.Background(), req, key); err == nil {
		t.Fatal("fill against a dead owner succeeded")
	}
	if st := pool.Breaker(nodes[1].name).State(); st != resilience.Open {
		t.Fatalf("breaker %v after failed fill, want open", st)
	}
	_, err := fill(context.Background(), req, key)
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("open breaker did not refuse the fill fast: %v", err)
	}

	nodes[1].revive()
	time.Sleep(testBreaker.OpenTimeout + 10*time.Millisecond)
	resp, err := fill(context.Background(), req, key)
	if err != nil || resp == nil {
		t.Fatalf("fill did not recover after the owner revived: %v", err)
	}
}
