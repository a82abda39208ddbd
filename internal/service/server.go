// Package service is the serving layer of the §III-D advisor workflow: a
// long-running HTTP/JSON API that answers offload-advice queries
// (POST /v1/advise), offload-threshold sweeps (POST /v1/threshold) and
// batched per-call routing decisions (POST /v1/dispatch, backed by
// internal/offload's hysteresis dispatcher) from GPU-BLOB's calibrated
// models, the way an automatic-offload runtime would consult them at
// dispatch time. All v1 endpoints answer with the unified envelope
// defined in envelope.go.
//
// Threshold sweeps are expensive (a full sweep evaluates thousands of
// problem sizes), so the service layers three defences in front of
// core.Run:
//
//   - a bounded LRU result cache keyed by core.Config.Hash() together
//     with the system, problem and precision;
//   - singleflight deduplication, so N concurrent identical requests
//     compute one sweep and share the result;
//   - a bounded worker pool with a fail-fast queue, so sweep load can
//     never starve the cheap advise path.
//
// Cancellation is threaded end to end: a disconnected client abandons
// its flight, and when a flight's last waiter is gone its context is
// cancelled, which core.RunProblem observes between problem sizes.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/offload"
	"repro/internal/overload"
	"repro/internal/resilience"
	"repro/internal/sim/systems"
)

// SweepFunc runs one threshold sweep. It matches core.Run's signature so
// the default is core.Run itself; tests substitute counting or blocking
// implementations.
type SweepFunc func(ctx context.Context, sys systems.System, problems []core.ProblemType, precisions []core.Precision, cfg core.Config) ([]*core.Series, error)

// Options configures a Server. The zero value is serviceable.
type Options struct {
	// Workers bounds concurrent sweeps (default 2).
	Workers int
	// Queue is the sweep backlog beyond the workers (default 8).
	Queue int
	// CacheSize bounds the threshold result cache (default 256 entries).
	CacheSize int
	// MaxSweepDim caps a request's config.MaxDim (default 4096, the
	// paper's d) so one request cannot ask for an unbounded sweep.
	MaxSweepDim int
	// Sweep replaces core.Run (tests only).
	Sweep SweepFunc
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger

	// RequestTimeout bounds how long one /v1/threshold request may take
	// end to end; expiry answers 504 with a JSON body. 0 (the default)
	// disables the budget.
	RequestTimeout time.Duration
	// MinSweepBudget fails a cache-missing /v1/threshold request fast
	// with 504 when its resolved deadline budget is already below this
	// floor: a sweep that cannot finish inside the remaining budget only
	// burns an admission slot to produce an answer nobody reads. 0 (the
	// default) disables the floor. Cache hits are exempt — they cost
	// nothing and always beat a 504.
	MinSweepBudget time.Duration
	// Resilience is applied to every sweep the service runs: retry
	// budget for transient backend faults and (rarely useful in a
	// server) checkpointing. It never changes a sweep's results, so it
	// is invisible to the cache key.
	Resilience core.Resilience
	// Breaker tunes the per-system circuit breakers guarding the sweep
	// backend; the zero value takes resilience.BreakerConfig's defaults.
	// While a system's breaker is open, threshold requests for it serve
	// a stale cache entry (marked "stale": true) when one exists and 503
	// otherwise.
	Breaker resilience.BreakerConfig
	// CacheTTL bounds how long a cached threshold result counts as
	// fresh; expired entries are only served (marked stale) while the
	// breaker is open. 0 (the default) keeps entries fresh forever.
	CacheTTL time.Duration
	// Inject, when non-nil, is consulted once per executed sweep
	// (Backend "service") before the backend runs — the service-layer
	// chaos hook. Nil costs a single comparison.
	Inject faultinject.Point
	// PeerFill, when non-nil, is consulted on a threshold cache miss
	// before the request pays for a local sweep: a clustered replica asks
	// the shard's ring owner for the result (internal/cluster wires this
	// to the peer-fill client pool). The hook is skipped for requests that
	// are themselves peer fills (PeerFillHeader present) so a fill can
	// never fan out into another fill.
	PeerFill PeerFillFunc

	// TargetLatency is the AIMD setpoint of the adaptive concurrency
	// limiter: sweep completions above it shrink the admitted
	// concurrency multiplicatively (toward 1), completions below it grow
	// it back toward Workers. 0 (the default) pins the limit at Workers —
	// the historical fixed-pool behaviour.
	TargetLatency time.Duration
	// FairShareRate enables per-client fair-share token buckets: each
	// client (X-API-Key header, else remote host) refills at this many
	// sweep admissions per second, FairShareBurst deep (default 4).
	// 0 disables the fair-share layer.
	FairShareRate  float64
	FairShareBurst int

	// MaxDispatchBatch caps the calls in one /v1/dispatch request
	// (default 8192). Dispatch decisions are cheap, but an unbounded
	// batch would still monopolise a connection.
	MaxDispatchBatch int
	// DispatchEvaluate replaces the dispatchers' timing-model evaluation
	// (tests count or script it).
	DispatchEvaluate offload.EvaluateFunc
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.Queue < 1 {
		o.Queue = 8
	}
	if o.CacheSize < 1 {
		o.CacheSize = 256
	}
	if o.MaxSweepDim < 1 {
		o.MaxSweepDim = 4096
	}
	if o.Sweep == nil {
		o.Sweep = core.Run
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	if o.MaxDispatchBatch < 1 {
		o.MaxDispatchBatch = 8192
	}
	return o
}

// Server holds the service's shared state. Create with New, expose with
// Handler, and Close when draining.
type Server struct {
	opts      Options
	sweep     SweepFunc
	pool      *Pool
	admission *overload.Controller
	cache     *Cache
	flights   *flightGroup
	metrics   *Metrics
	log       *slog.Logger
	start     time.Time

	// draining flips on BeginDrain and never clears; drainStart stamps
	// the moment the drain began (UnixNano), consumed exactly once by
	// Close to record blob_drain_seconds.
	draining   atomic.Bool
	drainStart atomic.Int64

	breakerMu sync.Mutex
	breakers  map[string]*resilience.Breaker // system name -> breaker

	dispatchMu  sync.Mutex
	dispatchers map[string]*offload.Dispatcher // system name -> dispatcher
}

// New assembles a Server (and starts its worker pool). Sweep concurrency
// is governed by the overload controller — an AIMD limiter whose ceiling
// is Workers, with Queue as the LIFO admission-queue depth — so the pool
// itself is sized to the ceiling and its channel buffer only absorbs the
// instant between a permit grant and a worker pickup.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:  opts,
		sweep: opts.Sweep,
		pool:  NewPool(opts.Workers, opts.Workers),
		admission: overload.New(overload.Config{
			MaxConcurrent:  opts.Workers,
			TargetLatency:  opts.TargetLatency,
			QueueCap:       opts.Queue,
			FairShareRate:  opts.FairShareRate,
			FairShareBurst: opts.FairShareBurst,
		}),
		cache:       NewCacheTTL(opts.CacheSize, opts.CacheTTL),
		flights:     newFlightGroup(),
		metrics:     NewMetrics(),
		log:         opts.Logger,
		start:       time.Now(),
		breakers:    map[string]*resilience.Breaker{},
		dispatchers: map[string]*offload.Dispatcher{},
	}
	s.metrics.QueueDepth = s.pool.QueueDepth
	s.metrics.AdmissionLimit = s.admission.Limit
	s.metrics.AdmissionQueued = s.admission.QueueDepth
	return s
}

// breaker returns the circuit breaker guarding one system's sweep
// backend, creating it on first use. Separate breakers per system keep
// one unhealthy backend from shedding every system's traffic.
func (s *Server) breaker(system string) *resilience.Breaker {
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	b, ok := s.breakers[system]
	if !ok {
		cfg := s.opts.Breaker
		cfg.OnStateChange = func(from, to resilience.State) {
			s.metrics.BreakerTransitions.Inc()
			s.log.Warn("circuit breaker state change",
				"system", system, "from", from.String(), "to", to.String())
		}
		b = resilience.NewBreaker(cfg)
		s.breakers[system] = b
	}
	return b
}

// Metrics exposes the registry (used by tests and the metrics endpoint).
func (s *Server) Metrics() *Metrics { return s.metrics }

// BeginDrain flips the replica not-ready — the first step of the drain
// order (ring-leave → stop-accept → flush). From this point /readyz
// answers 503 "not_ready" so peers and load balancers stop routing new
// work here, while /healthz stays green and in-flight (and even newly
// arriving) requests keep being served. The caller stops accepting
// connections next and finally calls Close, which flushes the pool and
// stamps blob_drain_seconds. Idempotent; safe from any goroutine.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.drainStart.Store(time.Now().UnixNano())
		s.log.Info("drain: replica not-ready (ring-leave)")
	}
}

// Ready reports whether the replica should receive new traffic, with a
// human-readable reason when it should not.
func (s *Server) Ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if !s.pool.Armed() {
		return false, "worker pool not armed"
	}
	return true, ""
}

// Close drains the server: admission closes first (queued waiters shed
// with reason shutting_down, new acquires refused), then the pool waits
// for the sweeps that were already admitted. When a graceful drain was
// announced via BeginDrain, the completed flush stamps the
// blob_drain_seconds gauge with the ring-leave → flush wall-clock.
func (s *Server) Close() {
	s.admission.Close()
	s.pool.Close()
	if t0 := s.drainStart.Swap(0); t0 > 0 {
		s.metrics.SetDrainSeconds(time.Since(time.Unix(0, t0)).Seconds())
	}
}

// Handler returns the service's routed, instrumented HTTP handler. The
// middleware order matters: instrument wraps the ResponseWriter first, so
// the recovery layer inside it can tell whether a response was already
// started when a panic arrives.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/advise", s.instrument("/v1/advise", s.recovered(s.requirePost(s.handleAdvise))))
	mux.Handle("/v1/threshold", s.instrument("/v1/threshold", s.recovered(s.requirePost(s.handleThreshold))))
	mux.Handle("/v1/dispatch", s.instrument("/v1/dispatch", s.recovered(s.requirePost(s.handleDispatch))))
	mux.Handle("/healthz", s.instrument("/healthz", s.recovered(http.HandlerFunc(s.handleHealthz))))
	mux.Handle("/readyz", s.instrument("/readyz", s.recovered(http.HandlerFunc(s.handleReadyz))))
	mux.Handle("/metrics", s.instrument("/metrics", s.recovered(s.metrics)))
	return mux
}

// statusWriter captures the status code for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// recovered is the panic-containment middleware: a panicking handler is
// logged, counted in blob_panics_total, and answered with a JSON 500 —
// one bad request must never take the process (or the connection pool)
// down with it. http.ErrAbortHandler is re-raised: it is net/http's
// sanctioned way to abort a response and must keep its meaning. If the
// handler already started its response the status cannot be rewritten;
// the panic is still logged and counted.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.metrics.PanicsTotal.Inc()
			s.log.Error("panic recovered",
				"method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(rec))
			if sw, ok := w.(*statusWriter); !ok || !sw.wrote {
				WriteError(w, http.StatusInternalServerError, "", fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// instrument wraps a handler with the observability middleware:
// in-flight gauge, per-endpoint request counter and latency histogram,
// and one structured log line per request. The endpoint's histogram is
// resolved here, once, not on every request.
func (s *Server) instrument(endpoint string, next http.Handler) http.Handler {
	latency := s.metrics.latency.With(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		began := time.Now()
		s.metrics.InFlight.Inc()
		defer s.metrics.InFlight.Dec()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(began)
		s.metrics.requests.With(endpoint, strconv.Itoa(sw.status)).Inc()
		latency.Observe(elapsed.Seconds())
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration_ms", float64(elapsed.Microseconds())/1e3,
			"remote", r.RemoteAddr,
		)
	})
}

func (s *Server) requirePost(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			WriteError(w, http.StatusMethodNotAllowed, "", fmt.Errorf("use POST"))
			return
		}
		h(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteEnvelope(w, http.StatusOK, SchemaHealth, HealthBody{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// handleReadyz is the readiness probe, distinct from handleHealthz's
// liveness: 200 only while the replica wants new traffic (not draining,
// worker pool armed), 503 "not_ready" otherwise. The 503 carries the
// uniform rejection contract (Retry-After header mirrored in the body)
// so a probe and a client read the same hint.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.Ready()
	if !ready {
		Reject(w, http.StatusServiceUnavailable, "not_ready", time.Second, errors.New(reason))
		return
	}
	WriteEnvelope(w, http.StatusOK, SchemaReady, ReadyBody{
		Status:        "ready",
		Draining:      false,
		WorkersArmed:  true,
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// decodeJSON strict-decodes a request body of at most 1 MiB into v.
func decodeJSON(r *http.Request, v any) error {
	return DecodeStrict(http.MaxBytesReader(nil, r.Body, 1<<20), v)
}

// DecodeStrict decodes one JSON object from r into v, rejecting unknown
// fields and trailing garbage so malformed requests fail loudly. The
// replicas and the cluster gateway decode requests through it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return errTrailingData
	}
	return nil
}

// errTrailingData rejects a request body with bytes after its object.
var errTrailingData = errors.New("invalid JSON body: trailing data")
