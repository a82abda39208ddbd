package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/overload"
	"repro/internal/resilience"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// SweepConfigRequest is the wire form of the sweep knobs, mirroring the
// artifact's CLI flags. Omitted fields take the benchmark's defaults
// (min 1, max 4096, step 1, 8 iterations, alpha 1, beta 0); validation is
// off because the service answers from the timing models.
type SweepConfigRequest struct {
	MinDim     int      `json:"min_dim,omitempty"`
	MaxDim     int      `json:"max_dim,omitempty"`
	Step       int      `json:"step,omitempty"`
	Iterations int      `json:"iterations,omitempty"`
	Alpha      *float64 `json:"alpha,omitempty"`
	Beta       float64  `json:"beta,omitempty"`
}

// ThresholdRequest is the body of POST /v1/threshold: one offload-
// threshold sweep for a system x problem x precision. Model selects the
// timing model — "roofline" (default when omitted) or "blackbox", the
// committed measured-efficiency tables; the choice is part of the cache
// key via core.Config.Hash, so the two models never answer for each
// other.
type ThresholdRequest struct {
	System    string             `json:"system"`
	Kernel    string             `json:"kernel"`
	Problem   string             `json:"problem,omitempty"` // default "square"
	Precision string             `json:"precision"`
	Model     string             `json:"model,omitempty"` // default "roofline"
	Config    SweepConfigRequest `json:"config"`
}

// ThresholdBody is one per-strategy threshold on the wire.
type ThresholdBody struct {
	Found    bool   `json:"found"`
	M        int    `json:"m,omitempty"`
	N        int    `json:"n,omitempty"`
	K        int    `json:"k,omitempty"`
	Notation string `json:"notation"`
}

// ThresholdResponse is the body of a successful POST /v1/threshold.
type ThresholdResponse struct {
	System     string `json:"system"`
	Kernel     string `json:"kernel"`
	Problem    string `json:"problem"`
	Definition string `json:"definition"`
	Precision  string `json:"precision"`
	// Key is the cache identity of this result: system, problem and
	// precision joined with core.Config.Hash().
	Key        string                   `json:"key"`
	Samples    int                      `json:"samples"`
	Thresholds map[string]ThresholdBody `json:"thresholds"`
	// Model names the timing model when it is not the default: "blackbox"
	// for table-driven sweeps, omitted entirely for roofline so existing
	// clients (and pinned response bodies) see byte-identical output.
	Model string `json:"model,omitempty"`
	// Cached reports that the result was served from the cache;
	// Deduplicated that it was computed once and shared with concurrent
	// identical requests by singleflight.
	Cached       bool `json:"cached"`
	Deduplicated bool `json:"deduplicated,omitempty"`
	// Stale marks a degraded answer: the sweep backend's circuit breaker
	// was open, so the service returned the last known result even
	// though its freshness window had lapsed.
	Stale bool `json:"stale,omitempty"`
	// FilledFrom names the cluster peer this result was fetched from over
	// the peer-fill path (empty when the replica computed or cached it
	// locally). Provenance only: the thresholds are byte-identical either
	// way, which the cluster soak profile asserts.
	FilledFrom string `json:"filled_from,omitempty"`
}

// PeerFillHeader marks a threshold request as a peer cache fill. A
// replica that receives it answers from its own cache or computes
// locally, but never consults its own PeerFill hook — the loop guard
// that keeps a fill from fanning out across the ring. Its value is the
// requesting member's name, for logs.
const PeerFillHeader = "X-Blob-Peer-Fill"

// PeerFillFunc asks the cluster for a threshold result this replica
// does not have cached. key is the canonical route/cache key (see
// ThresholdRouteKey). Returns (resp, nil) when a peer served the
// result, (nil, nil) when the path does not apply (this replica owns the
// shard, or no healthy owner exists), and (nil, err) when a fill was
// attempted and failed — the caller falls back to a local sweep.
type PeerFillFunc func(ctx context.Context, req ThresholdRequest, key string) (*ThresholdResponse, error)

// thresholdPlan is a fully resolved, validated threshold request.
type thresholdPlan struct {
	sys  systems.System
	pt   core.ProblemType
	prec core.Precision
	cfg  core.Config
	key  string
}

// resolve maps the wire request onto typed core values and computes the
// canonical cache key.
func (s *Server) resolveThreshold(req ThresholdRequest) (thresholdPlan, error) {
	return resolveThresholdIn(req, s.opts.MaxSweepDim, s.opts.Resilience)
}

// ThresholdRouteKey computes the canonical identity of one threshold
// request — the same string the serving replica caches the result
// under, so a gateway routing by it and the replica answering it agree
// byte for byte. maxSweepDim must match the replicas' MaxSweepDim
// option (<= 0 takes the service default); the Resilience block is
// excluded from core.Config.Hash, so it cannot skew the key.
func ThresholdRouteKey(req ThresholdRequest, maxSweepDim int) (string, error) {
	if maxSweepDim <= 0 {
		maxSweepDim = Options{}.withDefaults().MaxSweepDim
	}
	p, err := resolveThresholdIn(req, maxSweepDim, core.Resilience{})
	return p.key, err
}

// resolveThresholdIn is the shared implementation behind the server's
// resolve and the exported route key.
func resolveThresholdIn(req ThresholdRequest, maxSweepDim int, res core.Resilience) (thresholdPlan, error) {
	var p thresholdPlan
	var err error
	if p.sys, err = systems.ByName(req.System); err != nil {
		return p, err
	}
	kernel, err := core.ParseKernelKind(req.Kernel)
	if err != nil {
		return p, err
	}
	if p.prec, err = core.ParsePrecision(req.Precision); err != nil {
		return p, err
	}
	problem := req.Problem
	if problem == "" {
		problem = "square"
	}
	if p.pt, err = core.FindProblem(kernel, problem); err != nil {
		return p, err
	}

	c := req.Config
	p.cfg = core.Config{
		MinDim:     c.MinDim,
		MaxDim:     c.MaxDim,
		Step:       c.Step,
		Iterations: c.Iterations,
		Alpha:      1,
		Beta:       c.Beta,
		Mode:       core.ModeBoth,
	}
	if c.Alpha != nil {
		p.cfg.Alpha = *c.Alpha
	}
	if p.cfg.Model, err = core.ParseModelKind(req.Model); err != nil {
		return p, err
	}
	if p.cfg.MaxDim == 0 {
		p.cfg.MaxDim = maxSweepDim
	}
	if p.cfg.MaxDim > maxSweepDim {
		return p, fmt.Errorf("max_dim %d exceeds the service limit %d", p.cfg.MaxDim, maxSweepDim)
	}
	if p.cfg.Iterations == 0 {
		p.cfg.Iterations = 8
	}
	// Sweep-level retries never change the result, only whether a flaky
	// backend produces one; Config.Hash excludes the block, so the cache
	// key below is identical with or without it.
	p.cfg.Resilience = res
	hash, err := p.cfg.Hash()
	if err != nil {
		return p, err
	}
	p.key = fmt.Sprintf("%s|%s|%s|%s", p.sys.Name, p.pt.Kernel, p.pt.Name, p.prec) + "|" + hash
	return p, nil
}

// clientKey is the fair-share identity of one request: the X-API-Key
// header when present, else the remote host (without the ephemeral
// port, so one client's connections pool into one bucket).
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// requestBudget resolves a request's deadline budget: the server-side
// RequestTimeout tightened by the client's X-Deadline-Ms header when
// present (a client will stop waiting sooner than the server would —
// never later). 0 means unbounded. A malformed header is the client's
// error, not grounds for a silent default.
func requestBudget(r *http.Request, serverTimeout time.Duration) (time.Duration, error) {
	h := r.Header.Get("X-Deadline-Ms")
	if h == "" {
		return serverTimeout, nil
	}
	ms, err := strconv.Atoi(h)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("invalid X-Deadline-Ms %q: want a positive integer of milliseconds", h)
	}
	d := time.Duration(ms) * time.Millisecond
	if serverTimeout > 0 && serverTimeout < d {
		return serverTimeout, nil
	}
	return d, nil
}

func (s *Server) handleThreshold(w http.ResponseWriter, r *http.Request) {
	var req ThresholdRequest
	if err := decodeJSON(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "", err)
		return
	}
	plan, err := s.resolveThreshold(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "", err)
		return
	}
	budget, err := requestBudget(r, s.opts.RequestTimeout)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "", err)
		return
	}
	// The deadline budget covers everything after request validation:
	// admission queueing, the sweep itself, and result shaping. The
	// absolute deadline handed to admission reads the controller's clock
	// so budget arithmetic stays in virtual time under test.
	ctx, cancel := resilience.Deadline(r.Context(), budget)
	defer cancel()
	var deadline time.Time
	if budget > 0 {
		deadline = s.opts.AdmissionClock.Now().Add(budget)
	}

	if v, ok := s.cache.Get(plan.key); ok {
		s.metrics.CacheHits.Inc()
		resp := v.(ThresholdResponse)
		resp.Cached = true
		WriteEnvelope(w, http.StatusOK, SchemaThreshold, resp)
		return
	}
	s.metrics.CacheMisses.Inc()

	// A cache miss means paying for a sweep. When the remaining deadline
	// budget cannot plausibly cover one, fail fast: a 504 now is the same
	// answer the client would get after we burned an admission slot and a
	// worker on a doomed sweep. The Retry-After hint is the admission
	// controller's live p50 sweep cost, same as a timed-out request.
	if budget > 0 && s.opts.MinSweepBudget > 0 && budget < s.opts.MinSweepBudget {
		s.metrics.TimeoutsTotal.Inc()
		Reject(w, http.StatusGatewayTimeout, "deadline_exceeded", s.admission.P50Cost(),
			fmt.Errorf("deadline budget %s is below the minimum sweep budget %s", budget, s.opts.MinSweepBudget))
		return
	}

	// Peer cache fill (DESIGN.md §16): before paying for a local sweep, a
	// clustered replica asks the shard's ring owner for the result. The
	// header check is the loop guard — a request that is itself a fill
	// must answer from local state only. A filled result is cached here
	// with its transport markers cleared, so the next local hit serves it
	// as an ordinary cache entry; FilledFrom survives on the wire for
	// provenance.
	if s.opts.PeerFill != nil && r.Header.Get(PeerFillHeader) == "" {
		switch resp, ferr := s.opts.PeerFill(ctx, req, plan.key); {
		case resp != nil:
			s.metrics.PeerFillServes.Inc()
			stored := *resp
			stored.Cached, stored.Deduplicated, stored.Stale = false, false, false
			s.cache.Put(plan.key, stored)
			WriteEnvelope(w, http.StatusOK, SchemaThreshold, *resp)
			return
		case ferr != nil:
			s.metrics.PeerFillFallbacks.Inc()
			s.log.Warn("peer fill failed; sweeping locally", "key", plan.key, "err", ferr)
		}
	}

	br := s.breaker(plan.sys.Name)
	// Degraded tier: while this system's breaker is refusing outright
	// (open, before its half-open probe window), answer from the stale
	// cache inline — no admission slot, no queueing behind cold sweeps.
	// Past the probe window Refusing reports false and the request flows
	// through admission so the breaker can try its half-open probe.
	if br.Refusing() {
		s.serveStale(w, plan.key, resilience.ErrOpen)
		return
	}

	// Admission charges only flight leaders: the flight registers before
	// submit runs, so concurrent identical requests join it and share the
	// leader's slot instead of consuming their own.
	client := clientKey(r)
	admit := func(job func()) error {
		began := time.Now()
		permit, aerr := s.admission.Acquire(ctx, overload.Ticket{Client: client, Deadline: deadline})
		s.metrics.AdmissionSeconds.Observe(time.Since(began).Seconds())
		if aerr != nil {
			return aerr
		}
		s.metrics.AdmittedTotal.Inc()
		if err := s.pool.Submit(func() {
			start := time.Now()
			job()
			permit.Release(time.Since(start))
		}); err != nil {
			permit.Cancel()
			return err
		}
		return nil
	}
	val, shared, err := s.flights.Do(ctx, plan.key, admit, func(fctx context.Context) (any, error) {
		s.metrics.SweepsStarted.Inc()
		var resp ThresholdResponse
		// The breaker observes exactly one outcome per executed flight:
		// deduplicated waiters share the leader's Allow/Record, so a
		// thundering herd counts as one request against the trip ratio.
		err := br.Do(func() (err error) {
			defer func() {
				if rec := recover(); rec != nil {
					// A panicking backend (or a PanicKind fault) is contained
					// here, before it can kill the pool worker; it counts as
					// a backend failure for the breaker.
					s.metrics.PanicsTotal.Inc()
					s.log.Error("panic recovered in sweep", "key", plan.key, "panic", fmt.Sprint(rec))
					err = fmt.Errorf("sweep panicked: %v", rec)
				}
			}()
			if err := s.consultInject(plan); err != nil {
				return err
			}
			resp, err = s.runSweep(fctx, plan)
			return err
		})
		switch {
		case err == nil:
			s.metrics.SweepsCompleted.Inc()
			s.cache.Put(plan.key, resp)
		case errors.Is(err, context.Canceled):
			s.metrics.SweepsCancelled.Inc()
		}
		return resp, err
	})
	var shed *overload.ShedError
	switch {
	case err == nil:
		resp := val.(ThresholdResponse)
		resp.Deduplicated = shared
		WriteEnvelope(w, http.StatusOK, SchemaThreshold, resp)
	case errors.Is(err, resilience.ErrOpen):
		s.serveStale(w, plan.key, err)
	case errors.As(err, &shed):
		// Admission shed the leader before any sweep work ran. Quota
		// refusals are the client's own doing (429); the rest are server
		// capacity (503). Retry-After carries the controller's hint.
		s.metrics.sheds.With(string(shed.Reason)).Inc()
		s.metrics.clientSheds.With(client).Inc()
		status := http.StatusServiceUnavailable
		if shed.Reason == overload.ReasonQuota {
			status = http.StatusTooManyRequests
		}
		Reject(w, status, string(shed.Reason), shed.RetryAfter, err)
	case errors.Is(err, ErrQueueFull):
		Reject(w, http.StatusServiceUnavailable, "queue_full", time.Second, err)
	case errors.Is(err, ErrPoolClosed):
		Reject(w, http.StatusServiceUnavailable, "shutting_down", time.Second, err)
	case resilience.Expired(ctx):
		s.metrics.TimeoutsTotal.Inc()
		Reject(w, http.StatusGatewayTimeout, "deadline_exceeded", s.admission.P50Cost(),
			fmt.Errorf("request timed out after %s", budget))
	case r.Context().Err() != nil:
		// The client hung up; nobody is reading this response, but record
		// the outcome for metrics/logs with nginx's 499 convention. The
		// sweep was cancelled (or adopted by surviving waiters) already.
		w.WriteHeader(499)
		s.log.Info("threshold request abandoned", "key", plan.key)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Our own context is fine (the cases above ruled it out), so this
		// cancellation is inherited from a flight leader that gave up while
		// queued in admission. The follower's request was never charged; a
		// retry starts a fresh flight.
		Reject(w, http.StatusServiceUnavailable, "abandoned", time.Second,
			fmt.Errorf("shared sweep abandoned by its initiator"))
	default:
		WriteError(w, http.StatusInternalServerError, "", err)
	}
}

// serveStale is the open-breaker degradation: the backend is known to be
// unhealthy, so answer with the last known value for key, marked Cached
// and Stale, rather than an error the client can do nothing with. With
// nothing cached it rejects with 503 breaker_open carrying err.
func (s *Server) serveStale(w http.ResponseWriter, key string, err error) {
	s.metrics.BreakerOpenTotal.Inc()
	if v, _, ok := s.cache.GetStale(key); ok {
		s.metrics.StaleServes.Inc()
		resp := v.(ThresholdResponse)
		resp.Cached = true
		resp.Stale = true
		WriteEnvelope(w, http.StatusOK, SchemaThreshold, resp)
		return
	}
	Reject(w, http.StatusServiceUnavailable, "breaker_open", time.Second, err)
}

// consultInject asks the service-layer injection point (when armed)
// whether this sweep execution should fail or stall — the hook the chaos
// gate uses to rehearse panics and backend errors above the sim layer.
func (s *Server) consultInject(plan thresholdPlan) error {
	if s.opts.Inject == nil {
		return nil
	}
	extra, err := s.opts.Inject.At(faultinject.Site{
		Backend: faultinject.BackendService,
		Kernel:  strings.ToLower(plan.pt.Kernel.String()),
		Dim:     plan.cfg.MaxDim,
	})
	if err != nil {
		return err
	}
	if extra > 0 {
		time.Sleep(time.Duration(extra * float64(time.Second)))
	}
	return nil
}

// runSweep executes the sweep via the configured SweepFunc (core.Run in
// production) and shapes the result for the wire.
func (s *Server) runSweep(ctx context.Context, plan thresholdPlan) (ThresholdResponse, error) {
	series, err := s.sweep(ctx, plan.sys, []core.ProblemType{plan.pt}, []core.Precision{plan.prec}, plan.cfg)
	if err != nil {
		return ThresholdResponse{}, err
	}
	if len(series) != 1 {
		return ThresholdResponse{}, fmt.Errorf("sweep returned %d series, want 1", len(series))
	}
	ser := series[0]
	resp := ThresholdResponse{
		System:     plan.sys.Name,
		Kernel:     plan.pt.Kernel.String(),
		Problem:    plan.pt.Name,
		Definition: plan.pt.Desc,
		Precision:  plan.prec.String(),
		Key:        plan.key,
		Samples:    len(ser.Samples),
		Thresholds: map[string]ThresholdBody{},
	}
	if plan.cfg.Model == core.ModelBlackbox {
		resp.Model = plan.cfg.Model.String()
	}
	//blobvet:allow ctxflow -- three iterations over xfer.Strategies rendering a finished sweep's verdicts
	for _, st := range xfer.Strategies {
		th := ser.Thresholds[st]
		body := ThresholdBody{Found: th.Found, Notation: th.String()}
		if th.Found {
			body.M, body.N, body.K = th.Dims.M, th.Dims.N, th.Dims.K
		}
		resp.Thresholds[st.String()] = body
	}
	return resp, nil
}
