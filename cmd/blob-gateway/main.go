// blob-gateway routes advisor traffic across a blob-served cluster.
//
// The gateway holds no shard and computes no sweeps. It keeps the same
// consistent-hash ring the replicas keep (a pure function of the
// healthy member set — DESIGN.md §16), derives each request's route key
// with the identical canonical identity the replicas cache under, and
// proxies the request byte-transparently to the ring owner. When the
// owner is unreachable it fails over to the next member clockwise; a
// per-peer circuit breaker makes a dead replica cost one failed dial,
// not one per request. Replica-level answers — including 4xx rejections
// and Retry-After backpressure — are relayed verbatim and never count
// against a peer's health.
//
// Endpoints:
//
//	POST /v1/threshold  routed by the threshold's canonical route key
//	POST /v1/dispatch   routed by target system
//	POST /v1/advise     routed by request digest (stateless spread)
//	POST /cluster/v1/hello  membership messages (hello/leave/heartbeat)
//	GET  /healthz       gateway liveness
//	GET  /readyz        ready iff at least one replica is in the ring
//	GET  /metrics       routing metrics (per-peer routed counts,
//	                    reroutes, breaker skips, no-peer rejections)
//
// Usage:
//
//	blob-gateway -addr :8090 \
//	    -peers rep-0=http://10.0.0.1:8080,rep-1=http://10.0.0.2:8080
//
// -heartbeat starts the background health loop probing each replica's
// /readyz; a replica that misses -down-after consecutive probes leaves
// the ring (its shards fall through to the next owner) and rejoins on
// its first success. A draining replica leaves faster: its leave
// message removes it from the ring before its listener closes.
//
// SIGINT/SIGTERM shuts the gateway down; it holds no state worth
// draining beyond in-flight proxied requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "blob-gateway:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		peers      = flag.String("peers", "", "cluster roster: comma-separated name=url pairs (required)")
		vnodes     = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per member on the hash ring")
		replicas   = flag.Int("failover", 3, "ring owners to try per request (owner first, then clockwise)")
		heartbeat  = flag.Duration("heartbeat", 2*time.Second, "health probe period (0 disables the background loop)")
		downAfter  = flag.Int("down-after", 2, "consecutive failed probes before a replica leaves the ring")
		probeTO    = flag.Duration("probe-timeout", time.Second, "deadline for one /readyz health probe")
		maxDim     = flag.Int("max-dim", 4096, "largest sweep max_dim used to derive threshold route keys (match the replicas' -max-dim)")
		hedge      = flag.Bool("hedge", false, "race a delayed second attempt to the next ring owner on idempotent routes (threshold/advise; never dispatch)")
		hedgeAfter = flag.Duration("hedge-after", 0, "fixed hedge delay; 0 adapts to the p99 of recent proxy latencies, clamped to [-hedge-min, -hedge-max]")
		hedgeMin   = flag.Duration("hedge-min", 2*time.Millisecond, "floor for the adaptive hedge delay")
		hedgeMax   = flag.Duration("hedge-max", 500*time.Millisecond, "ceiling for the adaptive hedge delay (also used while the latency window is cold)")
		drain      = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level: %w", err)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	members, err := cluster.ParseMemberList(*peers)
	if err != nil {
		return fmt.Errorf("bad -peers: %w", err)
	}
	if len(members) == 0 {
		return errors.New("-peers is required: a gateway with no replicas routes nothing")
	}

	pool, err := cluster.NewGatewayPool(cluster.Options{
		Members:      members,
		VNodes:       *vnodes,
		DownAfter:    *downAfter,
		Heartbeat:    *heartbeat,
		ProbeTimeout: *probeTO,
		Logger:       logger,
	})
	if err != nil {
		return err
	}
	defer pool.Close()

	gw := cluster.NewGateway(pool, cluster.GatewayOptions{
		MaxSweepDim: *maxDim,
		Replication: *replicas,
		Logger:      logger,
		Hedge:       *hedge,
		HedgeAfter:  *hedgeAfter,
		HedgeMin:    *hedgeMin,
		HedgeMax:    *hedgeMax,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	pool.Start(ctx)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("gateway listening", "addr", *addr, "replicas", len(members), "failover", *replicas)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()

	logger.Info("gateway draining", "timeout", drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Info("gateway drained")
	return nil
}
