package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/service"
)

// GatewayOptions configures a Gateway.
type GatewayOptions struct {
	// MaxSweepDim must match the replicas' service MaxSweepDim option so
	// the gateway's route key and the replicas' cache key agree (<= 0
	// takes the service default, 4096).
	MaxSweepDim int
	// Replication is how many ring owners a request is tried against
	// before answering 503 no_peer (default 3; clamped to the member
	// count). Only transport failures and open breakers advance to the
	// next owner — an HTTP response, any status, is relayed as-is,
	// because a shed or an error is a valid answer, not a routing
	// failure.
	Replication int
	// Logger receives routing logs; nil discards them.
	Logger *slog.Logger
	// Hedge enables hedged requests on the idempotent routes
	// (/v1/threshold, /v1/advise): when the primary owner has
	// not answered within the hedge delay, a second copy of the request
	// races to the next ring owner — first success wins, the loser is
	// cancelled. /v1/dispatch is never hedged: the dispatcher's hysteresis
	// state makes a duplicated batch observable, so it is not idempotent.
	Hedge bool
	// HedgeAfter fixes the hedge delay. 0 (the default) derives it per
	// request from the p99 of recent successful proxy latencies, clamped
	// to [HedgeMin, HedgeMax] — "hedge only when this request is already
	// slower than almost everything we serve".
	HedgeAfter time.Duration
	// HedgeMin / HedgeMax clamp the adaptive hedge delay (defaults 2ms /
	// 500ms). HedgeMax also serves as the delay while the latency window
	// is still cold, so a freshly started gateway hedges conservatively.
	HedgeMin time.Duration
	HedgeMax time.Duration
}

// Gateway routes advisor requests to the consistent-hash owner of each
// request's shard, with breaker-guarded failover along the ring's
// preference order. It proxies bodies byte-transparently in both
// directions: the gateway can change where a verdict is computed,
// never what it says.
//
// Routing keys per endpoint:
//
//   - /v1/threshold: service.ThresholdRouteKey — the same canonical
//     identity the replica caches the result under, so one shard's
//     requests concentrate on the replica whose LRU holds them;
//   - /v1/dispatch: the system name, concentrating each system's
//     dispatcher shape-cache on one replica;
//   - /v1/advise: a digest of the request body — advise is stateless,
//     so any replica answers identically and the digest just spreads
//     load deterministically.
type Gateway struct {
	pool  *Pool
	opts  GatewayOptions
	log   *slog.Logger
	start time.Time

	metrics gatewayMetrics
	lat     latencyRing // recent proxy latencies, feeding the hedge delay
}

// gatewayMetrics is the gateway's own observability surface, in its own
// registry (the service's Metrics registry is per-replica; the gateway
// only routes).
type gatewayMetrics struct {
	*service.Registry
	routed service.Vec[service.Counter] // peer -> relayed responses

	reroutes     *service.Counter // transport failures that advanced to the next owner
	breakerSkips *service.Counter // owners skipped because their breaker refused
	noPeer       *service.Counter // requests that exhausted every owner
	hedges       *service.Counter // hedge requests fired (slow primary)
	hedgeWins    *service.Counter // relayed responses that came from a hedge
	deadlineGone *service.Counter // requests 504ed at the gateway: budget spent pre-forward
}

func newGatewayMetrics(pool *Pool) gatewayMetrics {
	r := &service.Registry{}
	r.GaugeFunc("blob_gateway_peer_up", "Ring membership, by peer (1 = in the ring).", func(emit func(float64, ...string)) {
		for _, m := range pool.Members() {
			up := 0.0
			if pool.Healthy(m.Name) {
				up = 1
			}
			emit(up, m.Name)
		}
	}, "peer")
	return gatewayMetrics{
		Registry:     r,
		routed:       r.CounterVec("blob_gateway_routed_total", "Responses relayed, by serving peer.", "peer"),
		reroutes:     r.Counter("blob_gateway_reroutes_total", "Transport failures that advanced to the next ring owner."),
		breakerSkips: r.Counter("blob_gateway_breaker_skips_total", "Owners skipped because their circuit breaker refused."),
		noPeer:       r.Counter("blob_gateway_no_peer_total", "Requests that exhausted every ring owner."),
		hedges:       r.Counter("blob_gateway_hedges_total", "Hedge requests fired against a slow primary owner."),
		hedgeWins:    r.Counter("blob_gateway_hedge_wins_total", "Relayed responses that came from a hedge, not the primary."),
		deadlineGone: r.Counter("blob_gateway_deadline_exhausted_total", "Requests answered 504 because the deadline budget was spent before forwarding."),
	}
}

// NewGateway builds a Gateway over a (typically self-less) pool.
func NewGateway(pool *Pool, opts GatewayOptions) *Gateway {
	if opts.MaxSweepDim <= 0 {
		opts.MaxSweepDim = 4096
	}
	if opts.Replication <= 0 {
		opts.Replication = 3
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	if opts.HedgeMin <= 0 {
		opts.HedgeMin = 2 * time.Millisecond
	}
	if opts.HedgeMax <= 0 {
		opts.HedgeMax = 500 * time.Millisecond
	}
	return &Gateway{pool: pool, opts: opts, log: opts.Logger, start: time.Now(), metrics: newGatewayMetrics(pool)}
}

// Handler returns the gateway's routed HTTP handler.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/threshold", g.post(g.routeThreshold))
	mux.Handle("/v1/dispatch", g.post(g.routeDispatch))
	mux.Handle("/v1/advise", g.post(g.routeByDigest))
	mux.Handle("/cluster/v1/hello", g.pool.HelloHandler())
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/readyz", g.handleReadyz)
	mux.Handle("/metrics", g.metrics)
	return mux
}

func (g *Gateway) post(h func(http.ResponseWriter, *http.Request, []byte, time.Time)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The deadline budget starts burning the moment the request
		// arrives, body read included.
		arrived := time.Now()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			service.WriteError(w, http.StatusMethodNotAllowed, "", errUsePost)
			return
		}
		body, err := readLimit(r, 64<<20)
		if err != nil {
			service.WriteError(w, http.StatusBadRequest, "", fmt.Errorf("reading body: %w", err))
			return
		}
		h(w, r, body, arrived)
	})
}

// routeThreshold routes by the canonical threshold identity. A request
// the replicas would reject is rejected here with the same contract —
// cheaper than a proxy hop, and it keeps garbage off the ring.
func (g *Gateway) routeThreshold(w http.ResponseWriter, r *http.Request, body []byte, arrived time.Time) {
	var req service.ThresholdRequest
	if err := service.DecodeStrict(bytes.NewReader(body), &req); err != nil {
		service.WriteError(w, http.StatusBadRequest, "", err)
		return
	}
	key, err := service.ThresholdRouteKey(req, g.opts.MaxSweepDim)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, "", err)
		return
	}
	g.route(w, r, key, body, true, arrived)
}

// routeDispatch routes by system name: each system's dispatcher
// shape-cache warms on one replica instead of diluting across all.
// Dispatch is never hedged (hedgeable=false): the dispatcher's
// hysteresis state makes a duplicated batch observable.
func (g *Gateway) routeDispatch(w http.ResponseWriter, r *http.Request, body []byte, arrived time.Time) {
	system := dispatchSystem(body)
	if system == "" {
		service.WriteError(w, http.StatusBadRequest, "", errors.New("invalid JSON body: want a dispatch batch with a system field"))
		return
	}
	g.route(w, r, "dispatch|"+system, body, false, arrived)
}

// dispatchSystem reads a dispatch batch's routing field in one scan: it
// streams the top-level keys and stops at "system" ("" when the body is
// not an object or has no string system). Clients encode system before
// the call list, so a 64-call batch is not scanned to its end here; the
// replica strict-decodes the whole batch.
func dispatchSystem(body []byte) string {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return ""
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return ""
		}
		if k, _ := key.(string); strings.EqualFold(k, "system") {
			var system string
			if dec.Decode(&system) != nil {
				return ""
			}
			return system
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			return ""
		}
	}
	return ""
}

// routeByDigest routes stateless endpoints by a digest of the body:
// deterministic spread, identical answers everywhere.
func (g *Gateway) routeByDigest(w http.ResponseWriter, r *http.Request, body []byte, arrived time.Time) {
	sum := sha256.Sum256(body)
	g.route(w, r, "advise|"+hex.EncodeToString(sum[:16]), body, true, arrived)
}

// route proxies body to the ring owners of key in preference order.
// Failover advances only on transport errors (peer unreachable) and
// open breakers; any HTTP response — including a shed — is the
// cluster's answer and is relayed verbatim. The client's X-Deadline-Ms
// budget is decremented by gateway-side elapsed time before each
// forward; a spent budget answers 504 without burning a replica slot.
// Hedgeable routes may additionally race a delayed second attempt
// against a slow primary (see GatewayOptions.Hedge and routeHedged).
func (g *Gateway) route(w http.ResponseWriter, r *http.Request, key string, body []byte, hedgeable bool, arrived time.Time) {
	owners := g.pool.Owners(key, g.opts.Replication)
	budget := clientBudget(r)
	if g.opts.Hedge && hedgeable && len(owners) > 1 {
		g.routeHedged(w, r, owners, body, budget, arrived)
		return
	}
	var lastErr error
	for i, name := range owners {
		br := g.pool.Breaker(name)
		if br == nil {
			continue // self or vanished member
		}
		if err := br.Allow(); err != nil {
			g.metrics.breakerSkips.Inc()
			lastErr = fmt.Errorf("peer %s: %w", name, err)
			continue
		}
		hdr, ok := g.hopHeaders(r, budget, arrived)
		if !ok {
			g.rejectDeadline(w, budget)
			return
		}
		resp, err := g.pool.Post(r.Context(), name, r.URL.Path, body, hdr)
		if err != nil {
			if r.Context().Err() != nil {
				// The client hung up mid-proxy; that proves nothing about
				// the peer (mirrors blobclient's breaker discipline), and
				// nobody is reading a reroute's answer.
				br.Record(nil)
				g.log.Info("gateway: request abandoned by client", "peer", name, "path", r.URL.Path)
				return
			}
			br.Record(err)
			g.metrics.reroutes.Inc()
			lastErr = fmt.Errorf("peer %s: %w", name, err)
			g.log.Warn("gateway: peer unreachable, rerouting", "peer", name, "path", r.URL.Path, "err", err)
			continue
		}
		// Any HTTP response proves the peer is alive.
		br.Record(nil)
		if i > 0 {
			g.log.Info("gateway: served by failover owner", "peer", name, "rank", i)
		}
		g.lat.observe(time.Since(arrived))
		g.relay(w, resp, name)
		g.metrics.routed.With(name).Inc()
		return
	}
	g.metrics.noPeer.Inc()
	msg := "no healthy replica owns this shard"
	if lastErr != nil {
		msg = fmt.Sprintf("%s (last error: %v)", msg, lastErr)
	}
	service.Reject(w, http.StatusServiceUnavailable, "no_peer", time.Second, errors.New(msg))
}

// relay copies a replica's response to the client byte-for-byte,
// tagging the serving peer in X-Blob-Peer.
func (g *Gateway) relay(w http.ResponseWriter, resp *http.Response, peer string) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "Allow"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Blob-Peer", peer)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		g.log.Debug("gateway: relay interrupted", "peer", peer, "err", err)
	}
}

// forwardHeaders picks the request headers that must survive the hop:
// the client identity (fair-share admission), the deadline budget, and
// the peer-fill loop guard.
func forwardHeaders(r *http.Request) http.Header {
	out := http.Header{}
	for _, h := range []string{"X-API-Key", deadlineHeader, service.PeerFillHeader} {
		if v := r.Header.Get(h); v != "" {
			out.Set(h, v)
		}
	}
	return out
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	service.WriteEnvelope(w, http.StatusOK, service.SchemaHealth, service.HealthBody{
		Status:        "ok",
		UptimeSeconds: time.Since(g.start).Seconds(),
	})
}

// handleReadyz: the gateway is ready while at least one replica is in
// the ring — with zero owners every route would answer 503 no_peer.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if len(g.pool.Ring().Members()) == 0 {
		service.Reject(w, http.StatusServiceUnavailable, "not_ready", time.Second, errors.New("no healthy replicas in the ring"))
		return
	}
	service.WriteEnvelope(w, http.StatusOK, service.SchemaReady, service.ReadyBody{
		Status:        "ready",
		WorkersArmed:  true, // the gateway has no pool to arm
		UptimeSeconds: time.Since(g.start).Seconds(),
	})
}
