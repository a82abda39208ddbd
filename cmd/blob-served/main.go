// blob-served serves the §III-D offload-advisor workflow over HTTP/JSON —
// the long-running counterpart of the one-shot blob-advise CLI, for
// automatic-offload runtimes that consult GPU-BLOB's models at dispatch
// time.
//
// Endpoints (every v1 response is the unified envelope — a "schema"
// token plus "data" on success or "error" {code, message, retry_after_s}
// on failure; DESIGN.md §14.2):
//
//	POST /v1/advise     advisor verdicts for a batch of BLAS call groups
//	POST /v1/threshold  offload-threshold sweep (cached, deduplicated)
//	POST /v1/dispatch   batched CPU/GPU routing through the per-system
//	                    offload dispatcher (memoized, stateless margin)
//	GET  /healthz       liveness (is the process up)
//	GET  /readyz        readiness (should the process receive traffic) —
//	                    503 not_ready while draining and until the sweep
//	                    worker pool is armed
//	GET  /metrics       Prometheus text metrics
//
// Usage:
//
//	blob-served -addr :8080 -workers 2 -queue 8 -cache 256 -drain 10s
//
// The resilience layer is tunable from the command line: -request-timeout
// bounds one threshold request end to end (expiry answers 504),
// -sweep-retries retries transient backend faults inside a sweep,
// -cache-ttl bounds how long a cached result counts as fresh (while a
// system's circuit breaker is open, an expired entry is still served,
// marked "stale": true), and -fault-plan arms a seeded fault-injection
// plan (JSON, see DESIGN.md §11) on the simulated backends — the chaos
// mode used to rehearse all of the above:
//
//	blob-served -request-timeout 30s -sweep-retries 10 -cache-ttl 1h \
//	    -fault-plan plan.json
//
// Overload robustness is the admission-control layer in front of the
// sweep pool (DESIGN.md §12): -target-latency turns on the AIMD adaptive
// concurrency limiter (admitted sweeps shrink when completions overshoot
// the setpoint), -fair-share / -fair-share-burst enable per-client
// token-bucket quotas, and clients may tighten their own deadline with
// an X-Deadline-Ms request header. Requests the service cannot serve in
// time are shed early with a Retry-After header (whole seconds, mirrored
// by the error body's retry_after_s) and a machine-readable error code
// (queue_full, over_quota, deadline_budget, breaker_open,
// shutting_down):
//
//	blob-served -workers 4 -queue 16 -target-latency 2s -fair-share 0.5
//
// A separate debug listener (disabled by default) exposes net/http/pprof
// and a runtime/metrics dump, so profiles can be captured from the
// running service without putting the profiling surface on the public
// port:
//
//	blob-served -addr :8080 -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//	curl -s http://127.0.0.1:6060/debug/runtime
//
// Clustering (DESIGN.md §16): give the replica a ring identity and the
// roster, and a local threshold cache miss asks the shard's ring owner
// over the peer-fill path before paying for a local sweep:
//
//	blob-served -addr :8080 -cluster-self rep-0 \
//	    -peers rep-0=http://10.0.0.1:8080,rep-1=http://10.0.0.2:8080
//
// -peers is the full roster, self included; -cluster-self names this
// replica's entry. The replica announces itself on start, probes its
// peers' /readyz on -cluster-heartbeat, and serves membership messages
// on POST /cluster/v1/hello. Put cmd/blob-gateway in front to route
// clients to shard owners.
//
// SIGINT/SIGTERM starts a graceful drain in a fixed order: first the
// replica flips not-ready and (when clustered) broadcasts a ring-leave,
// so peers and load balancers stop sending traffic; then the listener
// stops accepting and in-flight requests get up to -drain to finish;
// finally the sweep worker pool flushes and the completed drain is
// stamped on the blob_drain_seconds metric.
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
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/service"
	"repro/internal/sim/systems"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "blob-served:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 2, "concurrent threshold sweeps")
		queue    = flag.Int("queue", 8, "sweep queue depth beyond the workers")
		cache    = flag.Int("cache", 256, "threshold result cache entries")
		maxDim   = flag.Int("max-dim", 4096, "largest sweep max_dim a request may ask for")
		drain    = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")
		debug    = flag.String("debug-addr", "", "pprof/runtime-metrics listen address (empty = disabled; bind loopback)")

		reqTimeout = flag.Duration("request-timeout", 0, "per-request deadline for /v1/threshold; expiry answers 504 (0 = unbounded)")
		minSweep   = flag.Duration("min-sweep-budget", 0, "fail a cache-missing threshold request fast with 504 when its deadline budget is below this floor (0 = disabled)")
		retries    = flag.Int("sweep-retries", 0, "attempts per backend call inside a sweep for transient faults (0/1 = no retry)")
		cacheTTL   = flag.Duration("cache-ttl", 0, "freshness window for cached threshold results; expired entries serve only while the backend's breaker is open, marked stale (0 = fresh forever)")
		faultPlan  = flag.String("fault-plan", "", "seeded fault-injection plan (JSON file) to arm on the simulated backends — chaos mode")

		targetLat = flag.Duration("target-latency", 0, "AIMD setpoint for sweep latency: completions above it shrink admitted sweep concurrency toward 1, below it grow it back toward -workers (0 = fixed at -workers)")
		fairShare = flag.Float64("fair-share", 0, "per-client sweep admissions per second (X-API-Key header, else remote host); 0 disables fair-share shedding")
		fairBurst = flag.Int("fair-share-burst", 4, "per-client token-bucket burst for -fair-share")

		clusterSelf = flag.String("cluster-self", "", "this replica's member name in -peers; empty = standalone (no clustering)")
		peersFlag   = flag.String("peers", "", "cluster roster: comma-separated name=url pairs, self included")
		clusterHB   = flag.Duration("cluster-heartbeat", 2*time.Second, "peer health probe period (0 disables the background loop)")
		clusterDown = flag.Int("cluster-down-after", 2, "consecutive failed probes before a peer leaves this replica's ring")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level: %w", err)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	opts := service.Options{
		Workers:        *workers,
		Queue:          *queue,
		CacheSize:      *cache,
		MaxSweepDim:    *maxDim,
		Logger:         logger,
		RequestTimeout: *reqTimeout,
		MinSweepBudget: *minSweep,
		Resilience:     core.Resilience{MaxAttempts: *retries},
		CacheTTL:       *cacheTTL,
		TargetLatency:  *targetLat,
		FairShareRate:  *fairShare,
		FairShareBurst: *fairBurst,
	}
	if *faultPlan != "" {
		plan, err := faultinject.LoadPlan(*faultPlan)
		if err != nil {
			return fmt.Errorf("bad -fault-plan: %w", err)
		}
		inj := plan.Arm()
		// One injector feeds every layer: the service-level site plus the
		// sim backends of each sweep, so the fault stream is a single
		// deterministic sequence under the plan's seed.
		opts.Inject = inj
		opts.Sweep = func(ctx context.Context, sys systems.System, problems []core.ProblemType, precs []core.Precision, cfg core.Config) ([]*core.Series, error) {
			sys.CPU.Inject = inj
			sys.GPU.Inject = inj
			return core.Run(ctx, sys, problems, precs, cfg)
		}
		logger.Warn("fault injection armed", "plan", *faultPlan, "seed", plan.Seed, "rules", len(plan.Rules))
	}

	// Clustering: the pool must exist before the service, because the
	// service's peer-fill hook closes over it.
	var pool *cluster.Pool
	if *clusterSelf != "" {
		members, err := cluster.ParseMemberList(*peersFlag)
		if err != nil {
			return fmt.Errorf("bad -peers: %w", err)
		}
		pool, err = cluster.NewPool(cluster.Options{
			Self:      *clusterSelf,
			Members:   members,
			Heartbeat: *clusterHB,
			DownAfter: *clusterDown,
			Logger:    logger,
		})
		if err != nil {
			return err
		}
		opts.PeerFill = pool.FillThreshold()
	} else if *peersFlag != "" {
		return fmt.Errorf("-peers without -cluster-self: name this replica's roster entry")
	}

	svc := service.New(opts)
	defer svc.Close()

	handler := svc.Handler()
	var node *cluster.Node
	if pool != nil {
		node = cluster.NewNode(pool, svc)
		handler = node.Handler()
		defer pool.Close()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", *workers, "queue", *queue, "cache", *cache)
	if pool != nil {
		pool.Start(ctx)
		pool.AnnounceHello(ctx)
		logger.Info("clustered", "self", pool.Self(), "roster", len(pool.Members()))
	}

	// The debug listener is its own server on its own (ideally loopback)
	// address: pprof never shares the public port. Failures here are
	// fatal — a debug listener that silently failed to bind would defeat
	// the point of asking for one.
	var debugSrv *http.Server
	if *debug != "" {
		debugSrv = &http.Server{
			Addr:              *debug,
			Handler:           service.DebugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("debug listener: %w", err)
			}
		}()
		logger.Info("debug listening", "addr", *debug)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	logger.Info("draining", "timeout", drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if debugSrv != nil {
		_ = debugSrv.Close() // nothing to drain: profiles are best-effort
	}

	// Drain order, fixed: (1) ring-leave — flip /readyz not-ready and
	// tell peers, so new traffic stops arriving while the listener is
	// still up; (2) stop accepting and wait for in-flight requests;
	// (3) flush the sweep pool. Close stamps blob_drain_seconds with the
	// whole BeginDrain→flush span.
	if node != nil {
		node.Drain(drainCtx)
	} else {
		svc.BeginDrain()
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown: %w", err)
	}
	svc.Close()
	logger.Info("drained", "seconds", svc.Metrics().DrainSeconds())
	return nil
}
