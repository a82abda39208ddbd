// Package cluster shards the advisor service across a consistent-hash
// ring of replicas, the robustness layer that turns one admission-
// queued blob-served process into a fleet: a deterministic ring with
// virtual nodes (ring.go) keyed by the same canonical identity the
// service caches results under (service.ThresholdRouteKey, built on
// core.Config.Hash), a client pool (pool.go) holding one typed
// blobclient and one circuit breaker per peer with heartbeat-driven
// health over /readyz, a tiny membership wire protocol (wire.go:
// hello / leave / heartbeat, strict-parsed because it is network
// input), a peer cache-fill path so a replica that misses its local
// LRU asks the shard owner before paying for a sweep, and a routing
// gateway (gateway.go) that proxies requests byte-transparently to the
// owning replica with breaker-guarded failover to the next ring owner.
//
// The design invariant, inherited from the paper's reproducibility
// contract: routing and failover may change where a verdict is
// computed and how fast it arrives, never what it says. The cluster
// soak profile (cmd/blob-soak -profiles cluster) proves it by
// comparing every verdict served through a kill/rejoin chaos run
// byte-for-byte against a single-node reference.
package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"

	"repro/internal/service"
)

// Node bundles one replica: its service.Server and its cluster Pool,
// wired so a local threshold cache miss consults the pool's peer-fill
// path. Construct the service with Options.PeerFill = pool.FillThreshold()
// (NewNode checks nothing — the wiring is the caller's, because the
// service must be built after the pool).
type Node struct {
	pool *Pool
	svc  *service.Server
}

// NewNode bundles a pool and the service built around it.
func NewNode(pool *Pool, svc *service.Server) *Node {
	return &Node{pool: pool, svc: svc}
}

// Pool returns the node's cluster pool.
func (n *Node) Pool() *Pool { return n.pool }

// Service returns the node's service.
func (n *Node) Service() *service.Server { return n.svc }

// Handler returns the replica's full HTTP surface: the service's
// routed handler plus the cluster membership endpoint.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/cluster/v1/hello", n.pool.HelloHandler())
	mux.Handle("/", n.svc.Handler())
	return mux
}

// Drain runs the peer-visible half of the drain order: flip the
// replica not-ready (ring-leave — /readyz starts answering 503) and
// broadcast a leave message so peers drop it from their rings without
// waiting for probes. The caller then stops accepting connections and
// finally closes the service, which flushes in-flight sweeps and
// stamps blob_drain_seconds.
func (n *Node) Drain(ctx context.Context) {
	n.svc.BeginDrain()
	n.pool.BroadcastLeave(ctx)
}

// Close stops the pool's heartbeat loop and closes the service.
func (n *Node) Close() {
	n.pool.Close()
	n.svc.Close()
}

// HelloHandler serves POST /cluster/v1/hello: strict-parse one
// membership message, fold it into the table, and answer with this
// member's own heartbeat (identity plus ring fingerprint) so a hello
// exchange doubles as a view comparison.
func (p *Pool) HelloHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			service.WriteError(w, http.StatusMethodNotAllowed, "", errUsePost)
			return
		}
		body, err := readLimit(r, 1<<16)
		if err != nil {
			service.WriteError(w, http.StatusBadRequest, "", err)
			return
		}
		msg, err := ParseMessage(body)
		if err != nil {
			service.WriteError(w, http.StatusBadRequest, "", err)
			return
		}
		if err := p.Apply(msg); err != nil {
			service.WriteError(w, http.StatusBadRequest, "", err)
			return
		}
		service.WriteJSON(w, http.StatusOK, Message{Type: TypeHeartbeat, From: p.self, Ring: p.Ring().Fingerprint()})
	})
}

// errUsePost is the 405 message of every POST-only endpoint.
var errUsePost = errors.New("use POST")

// readLimit reads at most limit bytes of request body.
func readLimit(r *http.Request, limit int64) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(http.MaxBytesReader(nil, r.Body, limit))
}
