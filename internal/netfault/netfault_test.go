package netfault

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
)

// goldenPlan is the determinism fixture: a mix of probabilistic and
// windowed rules over two peers.
func goldenPlan() *Plan {
	return &Plan{
		Schema: SchemaVersion,
		Seed:   42,
		Rules: []Rule{
			{Peer: "n1", Probability: 0.5, Kind: Latency, LatencyMs: 10, JitterMs: 4},
			{Peer: "n2", MinIndex: 4, MaxIndex: 9, Probability: 1, Kind: Blackhole, HoldMs: 50},
			{Route: "/v1/threshold", Probability: 0.25, Kind: Truncate, TruncateAfter: 8},
			{Probability: 0.2, Kind: Reset, MaxHits: 2},
		},
	}
}

// goldenSequence drives a fixed evaluation schedule and renders each
// outcome as "index:kind" (or "-" for no fault).
func goldenSequence(in *Injector) string {
	var b strings.Builder
	for i := 0; i < 24; i++ {
		peer := "n1"
		if i%2 == 1 {
			peer = "n2"
		}
		route := "/v1/threshold"
		if i%3 == 0 {
			route = "/v1/advise"
		}
		f := in.At(peer, route)
		if i > 0 {
			b.WriteByte(' ')
		}
		if f == nil {
			b.WriteString(fmt.Sprintf("%d:-", i))
		} else {
			b.WriteString(fmt.Sprintf("%d:%v", i, f.Kind))
		}
	}
	return b.String()
}

// TestGoldenFaultSequence pins the deterministic contract: the same seed +
// plan yields the same fault sequence, byte for byte, on every run. If a
// PRNG-consumption change breaks this, the partition soak's replayability
// breaks with it — treat a diff here as a contract change, not a test fix.
func TestGoldenFaultSequence(t *testing.T) {
	const want = "0:latency 1:- 2:latency 3:- 4:latency 5:blackhole 6:- 7:blackhole 8:latency 9:blackhole 10:latency 11:- 12:- 13:reset 14:latency 15:- 16:truncate 17:reset 18:latency 19:- 20:- 21:- 22:truncate 23:-"
	first := goldenSequence(goldenPlan().Arm())
	if first != want {
		t.Fatalf("golden fault sequence changed:\n got %s\nwant %s", first, want)
	}
	if second := goldenSequence(goldenPlan().Arm()); second != first {
		t.Fatalf("re-armed plan diverged:\n got %s\nwant %s", second, first)
	}
}

// TestGoldenLatencyJitter pins what the kind-only golden cannot see: the
// jitter draw each firing latency rule takes from the same seeded stream,
// and the per-kind counts the injector reports afterwards.
func TestGoldenLatencyJitter(t *testing.T) {
	const want = "0:10.264001ms 2:11.532773ms 4:12.585505ms 8:10.484952ms 14:12.610248ms 18:12.886848ms 20:13.893919ms 22:12.508976ms" +
		" | {Evaluations:24 Matches:37 Fired:[8 0 3 0 4 0]}"
	in := goldenPlan().Arm()
	var got []string
	for i := 0; i < 24; i++ {
		peer := []string{"n1", "n2"}[i%2]
		if f := in.At(peer, "/v1/threshold"); f != nil && f.Kind == Latency {
			got = append(got, fmt.Sprintf("%d:%v", f.Index, f.Latency))
		}
	}
	if s := strings.Join(got, " ") + fmt.Sprintf(" | %+v", in.Stats()); s != want {
		t.Fatalf("golden latency stream changed:\n got %s\nwant %s", s, want)
	}
}

func TestPlanParseRoundTrip(t *testing.T) {
	p := goldenPlan()
	data, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	q, err := ParsePlan(data)
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if len(q.Rules) != len(p.Rules) || q.Seed != p.Seed || q.Schema != SchemaVersion {
		t.Fatalf("round trip changed the plan: %+v", q)
	}
}

func TestParsePlanRejects(t *testing.T) {
	cases := map[string]string{
		"missing schema":    `{"seed": 1, "rules": []}`,
		"wrong schema":      `{"schema": "faultinject/v1", "seed": 1, "rules": []}`,
		"unknown field":     `{"schema": "netfault/v1", "seed": 1, "rules": [{"probability": 1, "kind": "reset", "bogus": 3}]}`,
		"unknown kind":      `{"schema": "netfault/v1", "rules": [{"probability": 1, "kind": "gremlin"}]}`,
		"probability > 1":   `{"schema": "netfault/v1", "rules": [{"probability": 1.5, "kind": "reset"}]}`,
		"inverted window":   `{"schema": "netfault/v1", "rules": [{"min_index": 9, "max_index": 3, "probability": 1, "kind": "reset"}]}`,
		"param wrong kind":  `{"schema": "netfault/v1", "rules": [{"probability": 1, "kind": "reset", "latency_ms": 5}]}`,
		"negative duration": `{"schema": "netfault/v1", "rules": [{"probability": 1, "kind": "latency", "latency_ms": -5}]}`,
		"trailing data":     `{"schema": "netfault/v1", "rules": []} {}`,
		"not json":          `schema: netfault/v1`,
	}
	for name, body := range cases {
		if _, err := ParsePlan([]byte(body)); err == nil {
			t.Errorf("%s: ParsePlan accepted %s", name, body)
		}
	}
}

// singleFault arms a plan whose only rule always fires kind k at peer
// "srv" on every route.
func singleFault(r Rule) *Injector {
	r.Probability = 1
	return (&Plan{Schema: SchemaVersion, Seed: 1, Rules: []Rule{r}}).Arm()
}

func testBackend(t *testing.T, body string) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, hc *http.Client, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp, raw, err
}

func TestTransportLatencyAndReset(t *testing.T) {
	ts := testBackend(t, `{"ok":true}`)

	hc := &http.Client{Transport: &Transport{Injector: singleFault(Rule{Kind: Latency, LatencyMs: 30})}}
	began := time.Now()
	_, raw, err := get(t, hc, ts.URL)
	if err != nil {
		t.Fatalf("latency-faulted GET failed: %v", err)
	}
	if string(raw) != `{"ok":true}` {
		t.Fatalf("latency fault changed the body: %q", raw)
	}
	if d := time.Since(began); d < 25*time.Millisecond {
		t.Fatalf("latency fault added only %v", d)
	}

	hc = &http.Client{Transport: &Transport{Injector: singleFault(Rule{Kind: Reset})}}
	_, _, err = get(t, hc, ts.URL)
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != Reset {
		t.Fatalf("reset fault surfaced as %v", err)
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("injected reset is not transient: %v", err)
	}
}

func TestTransportBlackholeRespectsContext(t *testing.T) {
	ts := testBackend(t, "{}")
	hc := &http.Client{Transport: &Transport{Injector: singleFault(Rule{Kind: Blackhole, HoldMs: 5000})}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	began := time.Now()
	_, err := hc.Do(req)
	if err == nil {
		t.Fatal("blackholed request succeeded")
	}
	if d := time.Since(began); d > time.Second {
		t.Fatalf("blackhole ignored the context for %v", d)
	}
}

func TestTransportBodyFaults(t *testing.T) {
	const body = `{"schema":"blob.v1.threshold","data":{"found":true}}`
	ts := testBackend(t, body)

	// Truncate: short read ends in io.ErrUnexpectedEOF.
	hc := &http.Client{Transport: &Transport{Injector: singleFault(Rule{Kind: Truncate, TruncateAfter: 10})}}
	resp, err := hc.Get(ts.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated read error = %v, want io.ErrUnexpectedEOF", err)
	}
	if len(raw) != 10 {
		t.Fatalf("truncate kept %d bytes, want 10", len(raw))
	}

	// Corrupt: byte count intact, content changed.
	hc = &http.Client{Transport: &Transport{Injector: singleFault(Rule{Kind: Corrupt, FlipEvery: 16})}}
	_, raw, err = get(t, hc, ts.URL)
	if err != nil {
		t.Fatalf("corrupt-faulted GET failed: %v", err)
	}
	if len(raw) != len(body) {
		t.Fatalf("corrupt changed the length: %d != %d", len(raw), len(body))
	}
	if string(raw) == body {
		t.Fatal("corrupt fault left the body intact")
	}

	// SlowLoris: body intact, delivery dribbled.
	hc = &http.Client{Transport: &Transport{Injector: singleFault(Rule{Kind: SlowLoris, ChunkBytes: 8, ChunkDelayMs: 1})}}
	began := time.Now()
	_, raw, err = get(t, hc, ts.URL)
	if err != nil {
		t.Fatalf("slowloris GET failed: %v", err)
	}
	if string(raw) != body {
		t.Fatalf("slowloris changed the body: %q", raw)
	}
	if d := time.Since(began); d < 5*time.Millisecond {
		t.Fatalf("slowloris dribbled too fast: %v", d)
	}
}

func TestRuleWindowsAndMaxHits(t *testing.T) {
	in := (&Plan{Schema: SchemaVersion, Seed: 1, Rules: []Rule{
		{MinIndex: 2, MaxIndex: 3, Probability: 1, Kind: Reset},
	}}).Arm()
	var kinds []string
	for i := 0; i < 6; i++ {
		f := in.At("p", "/r")
		if f == nil {
			kinds = append(kinds, "-")
		} else {
			kinds = append(kinds, f.Kind.String())
		}
	}
	if got := strings.Join(kinds, " "); got != "- - reset reset - -" {
		t.Fatalf("index window misapplied: %s", got)
	}

	in = singleFault(Rule{Kind: Reset, MaxHits: 2})
	fired := 0
	for i := 0; i < 5; i++ {
		if in.At("p", "/r") != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("max_hits=2 fired %d times", fired)
	}
	st := in.Stats()
	if st.Evaluations != 5 || st.Fired[Reset] != 2 || st.Total() != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWrapListenerFaults(t *testing.T) {
	// A reset-everything listener: every request dies on a severed conn.
	in := singleFault(Rule{Kind: Reset})
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "{}")
	}))
	backend.Listener = WrapListener(backend.Listener, in, "srv")
	backend.Start()
	defer backend.Close()
	hc := &http.Client{Timeout: 2 * time.Second}
	if _, err := hc.Get(backend.URL); err == nil {
		t.Fatal("request through a reset listener succeeded")
	}
	if in.Stats().Fired[Reset] == 0 {
		t.Fatal("listener never consulted the injector")
	}

	// Nil injector: WrapListener is the identity.
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	defer plain.Close()
	if l := WrapListener(plain.Listener, nil, "srv"); l != plain.Listener {
		t.Fatal("WrapListener(nil injector) wrapped anyway")
	}
}

// TestUnarmedZeroAlloc pins the acceptance criterion that an unarmed
// wrapper costs nothing on the hot path: no allocations for the nil
// injector check, and a nil *Injector's At is alloc-free too.
func TestUnarmedZeroAlloc(t *testing.T) {
	var in *Injector
	if n := testing.AllocsPerRun(100, func() {
		if in.At("p", "/r") != nil {
			t.Fatal("nil injector fired")
		}
	}); n != 0 {
		t.Fatalf("nil Injector.At allocates %.1f per call", n)
	}
}

// BenchmarkTransportUnarmed measures the pass-through tax of leaving an
// unarmed Transport wrapper in production wiring.
func BenchmarkTransportUnarmed(b *testing.B) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "{}")
	}))
	defer ts.Close()
	hc := &http.Client{Transport: &Transport{Inner: http.DefaultTransport}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := hc.Get(ts.URL)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkInjectorAtNoMatch measures the armed-but-quiet cost: rules
// present, none matching this peer.
func BenchmarkInjectorAtNoMatch(b *testing.B) {
	in := (&Plan{Schema: SchemaVersion, Seed: 1, Rules: []Rule{
		{Peer: "other", Probability: 1, Kind: Reset},
	}}).Arm()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if in.At("p", "/r") != nil {
			b.Fatal("unexpected fault")
		}
	}
}
