package benchmark

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	benchdata "repro/bench_data"
	"repro/internal/advisor"
	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/flops"
	"repro/internal/matrix"
	"repro/internal/offload"
	"repro/internal/overload"
	"repro/internal/service"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// DefaultSuite builds the standardized suite: kernel cases over a size
// ladder, modeled sweep and advisor cases, and end-to-end service cases.
// The smoke ladder is small enough for a CI gate; the full ladder is what
// BENCH_baseline.json records.
func DefaultSuite(opt Options) []Case {
	gemmSizes := []int{64, 128, 256}
	gemvSizes := []int{512, 1024, 2048}
	tallM := 2048
	sweepDim := 256
	if opt.Smoke {
		gemmSizes = []int{32, 64}
		gemvSizes = []int{128}
		tallM = 256
		sweepDim = 48
	}

	var cases []Case
	for _, n := range gemmSizes {
		cases = append(cases, gemmCase(core.F32, n, n, n, "square"))
		cases = append(cases, gemmCase(core.F64, n, n, n, "square"))
	}
	// One of the paper's non-square problem types (§III-C): the tall-skinny
	// rank-32 update shape that motivates Table V.
	cases = append(cases, gemmCase(core.F32, tallM, 32, 32, "tallthin"))
	for _, n := range gemvSizes {
		cases = append(cases, gemvCase(core.F32, n))
		cases = append(cases, gemvCase(core.F64, n))
	}
	dispatchBatch := 1000
	if opt.Smoke {
		dispatchBatch = 200
	}

	cases = append(cases,
		sweepCase("dawn", core.GEMM, core.F64, sweepDim, core.ModelRoofline),
		sweepCase("isambard-ai", core.GEMV, core.F32, sweepDim, core.ModelRoofline),
		sweepCase("lumi", core.GEMM, core.F32, sweepDim, core.ModelBlackbox),
		retryOverheadCase(sweepDim),
		adviseCase(),
		blackboxAdviseCase(),
		serviceAdviseCase(),
		serviceThresholdCachedCase(sweepDim),
		serviceHealthzCase(),
		overloadAcquireCase(),
		serviceThresholdShedCase(),
		offloadDecideWarmCase(),
		offloadDispatchBatchCase(dispatchBatch),
		clusterRouteOverheadCase(),
		clusterHedgeOverheadCase(),
		blobvetCase(),
	)
	return cases
}

// gemmCase benchmarks one Opt*gemm call on seeded operands.
func gemmCase(prec core.Precision, m, n, k int, shape string) Case {
	name := fmt.Sprintf("blas/gemm/f%d/%s/%d", 32*(1+int(prec)), shape, m)
	return Case{
		Name:       name,
		Group:      "blas",
		FlopsPerOp: flops.Gemm(m, n, k, flops.Beta{IsZero: true}),
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			rng := matrix.NewRNG(matrix.DefaultSeed)
			if prec == core.F32 {
				a, b, c := matrix.NewDense32(m, k), matrix.NewDense32(k, n), matrix.NewDense32(m, n)
				a.Fill(rng)
				b.Fill(rng)
				return func() error {
					blas.OptSgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, a.Data, a.Ld, b.Data, b.Ld, 0, c.Data, c.Ld)
					return nil
				}, nil, nil
			}
			a, b, c := matrix.NewDense64(m, k), matrix.NewDense64(k, n), matrix.NewDense64(m, n)
			a.Fill(rng)
			b.Fill(rng)
			return func() error {
				blas.OptDgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, a.Data, a.Ld, b.Data, b.Ld, 0, c.Data, c.Ld)
				return nil
			}, nil, nil
		},
	}
}

// gemvCase benchmarks one square Opt*gemv call on seeded operands.
func gemvCase(prec core.Precision, n int) Case {
	name := fmt.Sprintf("blas/gemv/f%d/square/%d", 32*(1+int(prec)), n)
	return Case{
		Name:       name,
		Group:      "blas",
		FlopsPerOp: flops.Gemv(n, n, flops.Beta{IsZero: true}),
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			rng := matrix.NewRNG(matrix.DefaultSeed)
			if prec == core.F32 {
				a, x, y := matrix.NewDense32(n, n), matrix.NewVector32(n), matrix.NewVector32(n)
				a.Fill(rng)
				x.Fill(rng)
				return func() error {
					blas.OptSgemv(blas.NoTrans, n, n, 1, a.Data, a.Ld, x.Data, x.Inc, 0, y.Data, y.Inc)
					return nil
				}, nil, nil
			}
			a, x, y := matrix.NewDense64(n, n), matrix.NewVector64(n), matrix.NewVector64(n)
			a.Fill(rng)
			x.Fill(rng)
			return func() error {
				blas.OptDgemv(blas.NoTrans, n, n, 1, a.Data, a.Ld, x.Data, x.Inc, 0, y.Data, y.Inc)
				return nil
			}, nil, nil
		},
	}
}

// sweepCase benchmarks one modeled offload sweep — the unit of work behind
// POST /v1/threshold and the experiments registry. Validation is off so
// the case isolates the sweep engine and timing models. A blackbox case,
// named with a "/blackbox" suffix, prices every sample through the
// committed efficiency tables.
func sweepCase(system string, kernel core.KernelKind, prec core.Precision, maxDim int, model core.ModelKind) Case {
	name := fmt.Sprintf("sweep/%s/%s/%s/d%d", kernelToken(kernel), precToken(prec), system, maxDim)
	if model == core.ModelBlackbox {
		name += "/blackbox"
	}
	return Case{
		Name:  name,
		Group: "sweep",
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			sys, err := systems.ByName(system)
			if err != nil {
				return nil, nil, err
			}
			pt, err := core.FindProblem(kernel, "square")
			if err != nil {
				return nil, nil, err
			}
			cfg := core.Config{MinDim: 1, MaxDim: maxDim, Step: 1, Iterations: 8, Alpha: 1, Model: model}
			return func() error {
				_, err := core.RunProblem(ctx, sys, pt, prec, cfg)
				return err
			}, nil, nil
		},
	}
}

// retryOverheadCase benchmarks the same modeled sweep as sweepCase with
// the resilience layer armed but quiet: a retry budget is configured and
// a fault injector is consulted on every backend call, but its one rule
// can never match. Comparing it against sweep/gemm/f64/dawn/d<N> bounds
// the cost of carrying the fault-injection and retry plumbing on the hot
// path — the issue's bar is under 1%.
func retryOverheadCase(maxDim int) Case {
	name := fmt.Sprintf("resilience/retry-overhead/d%d", maxDim)
	return Case{
		Name:  name,
		Group: "resilience",
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			sys, err := systems.ByName("dawn")
			if err != nil {
				return nil, nil, err
			}
			pt, err := core.FindProblem(core.GEMM, "square")
			if err != nil {
				return nil, nil, err
			}
			// The rule's size window sits above the sweep, so every
			// consult is a miss: the injector runs its full matching path
			// without ever firing a fault or triggering a retry.
			plan := faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
				{Backend: faultinject.BackendGPU, MinDim: maxDim + 1, Probability: 1, Kind: faultinject.Transient},
			}}
			inj := plan.Arm()
			sys.CPU.Inject = inj
			sys.GPU.Inject = inj
			cfg := core.Config{MinDim: 1, MaxDim: maxDim, Step: 1, Iterations: 8, Alpha: 1,
				Resilience: core.Resilience{MaxAttempts: 3}}
			return func() error {
				_, err := core.RunProblem(ctx, sys, pt, core.F64, cfg)
				return err
			}, nil, nil
		},
	}
}

// adviseCase benchmarks advisor.AdviseAll over a synthetic 64-call trace on
// all three systems — cmd/blob-advise's hot path.
func adviseCase() Case {
	return Case{
		Name:  "advise/trace64/all-systems",
		Group: "advise",
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			syss := systems.All()
			calls := syntheticTrace(64)
			return func() error {
				_, err := advisor.AdviseAll(syss, calls)
				return err
			}, nil, nil
		},
	}
}

// blackboxAdviseCase runs the same 64-call trace as adviseCase with the
// systems switched to the blackbox model (the embedded bench_data/
// efficiency tables). Comparing it against advise/trace64/all-systems
// bounds the cost of table interpolation — a binary search plus one
// lerp per efficiency query — over the analytic ramp it replaces.
func blackboxAdviseCase() Case {
	return Case{
		Name:  "sim/blackbox-advise/trace64",
		Group: "sim",
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			set, err := benchdata.Default()
			if err != nil {
				return nil, nil, err
			}
			syss := systems.All()
			for i := range syss {
				syss[i] = syss[i].WithEffTables(set)
			}
			calls := syntheticTrace(64)
			return func() error {
				_, err := advisor.AdviseAll(syss, calls)
				return err
			}, nil, nil
		},
	}
}

// syntheticTrace builds n deterministic call groups spanning both kernels,
// both precisions and all three transfer strategies.
func syntheticTrace(n int) []advisor.Call {
	calls := make([]advisor.Call, 0, n)
	for i := 0; i < n; i++ {
		c := advisor.Call{
			Kernel:    core.GEMM,
			M:         64 + 32*(i%40),
			N:         64 + 16*(i%40),
			K:         64,
			Precision: core.F32,
			Count:     1 + i%32,
			Strategy:  xfer.Strategies[i%len(xfer.Strategies)],
		}
		if i%2 == 1 {
			c.Kernel = core.GEMV
			c.K = 0
		}
		if i%3 == 0 {
			c.Precision = core.F64
		}
		calls = append(calls, c)
	}
	return calls
}

// serviceEnv is a live in-process blob-served instance for the service
// cases: real handlers, real middleware, loopback HTTP.
type serviceEnv struct {
	svc    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func newServiceEnv() *serviceEnv {
	svc := service.New(service.Options{Workers: 2, Queue: 8, CacheSize: 64})
	ts := httptest.NewServer(svc.Handler())
	return &serviceEnv{
		svc:    svc,
		ts:     ts,
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

func (e *serviceEnv) close() {
	e.ts.Close()
	e.svc.Close()
}

// do issues one request and fails on any non-2xx status.
func (e *serviceEnv) do(method, path string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return nil
}

// serviceAdviseCase measures the end-to-end latency of POST /v1/advise for
// a two-call batch: JSON decode, validation, model evaluation, encode.
func serviceAdviseCase() Case {
	body := []byte(`{
	  "systems": ["isambard-ai", "dawn"],
	  "calls": [
	    {"kernel":"gemm","m":1024,"n":1024,"k":1024,"precision":"f32","count":8,"movement":"once"},
	    {"kernel":"gemv","m":4096,"n":4096,"precision":"f64","count":128,"movement":"always"}
	  ]
	}`)
	return Case{
		Name:  "service/advise/batch2",
		Group: "service",
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			env := newServiceEnv()
			return func() error {
				return env.do(http.MethodPost, "/v1/advise", body)
			}, env.close, nil
		},
	}
}

// serviceThresholdCachedCase measures POST /v1/threshold on the cache-hit
// path: one priming request computes the sweep, then every repetition is
// served from the LRU — the steady state of a production advisor.
func serviceThresholdCachedCase(maxDim int) Case {
	body := []byte(fmt.Sprintf(`{
	  "system": "dawn", "kernel": "gemm", "problem": "square",
	  "precision": "f64", "config": {"max_dim": %d, "iterations": 8}
	}`, maxDim))
	return Case{
		Name:  fmt.Sprintf("service/threshold/cached/d%d", maxDim),
		Group: "service",
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			env := newServiceEnv()
			if err := env.do(http.MethodPost, "/v1/threshold", body); err != nil {
				env.close()
				return nil, nil, fmt.Errorf("priming threshold cache: %w", err)
			}
			return func() error {
				return env.do(http.MethodPost, "/v1/threshold", body)
			}, env.close, nil
		},
	}
}

// clusterRouteOverheadCase measures the blob-gateway routing tax: one
// POST /v1/threshold through a gateway in front of a 3-replica cluster,
// with the shard already cached on its ring owner. Every repetition
// pays route-key derivation, ring lookup, breaker admission, and the
// proxy hop — the fixed overhead clustering adds to a cache hit.
// TestGatewayRouteOverhead bounds it as a ratio: the gateway's p50 is at
// most maxRouteRatio times a direct request's p50.
func clusterRouteOverheadCase() Case {
	return clusterGatewayCase("cluster/route-overhead", cluster.GatewayOptions{})
}

// clusterHedgeOverheadCase is clusterRouteOverheadCase with hedging
// armed: same cached shard, same proxy hop, plus the hedge timer and
// latency-window bookkeeping on every request. Against a healthy
// cluster the timer never fires, so this case prices the *unfaulted*
// cost of arming hedges. TestGatewayHedgeOverhead holds it to the same
// ratio bound (gateway p50 at most maxRouteRatio times direct p50);
// BENCH artifacts record the absolute figure.
func clusterHedgeOverheadCase() Case {
	return clusterGatewayCase("cluster/hedge-overhead", cluster.GatewayOptions{Hedge: true})
}

func clusterGatewayCase(name string, gwOpts cluster.GatewayOptions) Case {
	body := []byte(`{
	  "system": "dawn", "kernel": "gemv", "precision": "f64",
	  "config": {"max_dim": 64, "step": 8, "iterations": 2}
	}`)
	return Case{
		Name:  name,
		Group: "service",
		Prepare: func(ctx context.Context) (op func() error, cleanup func(), err error) {
			const replicas = 3
			var (
				svcs    []*service.Server
				servers []*httptest.Server
				pools   []*cluster.Pool
			)
			cleanup = func() {
				for _, ts := range servers {
					ts.Close()
				}
				for _, p := range pools {
					p.Close()
				}
				for _, s := range svcs {
					s.Close()
				}
			}
			// Replica listeners first — their URLs seed the roster — with
			// the real handlers swapped in once pools and services exist.
			slots := make([]atomic.Value, replicas)
			members := make([]cluster.Member, replicas)
			for i := 0; i < replicas; i++ {
				slot := &slots[i]
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					slot.Load().(http.Handler).ServeHTTP(w, r)
				}))
				servers = append(servers, ts)
				members[i] = cluster.Member{Name: fmt.Sprintf("rep-%d", i), URL: ts.URL}
			}
			for i := 0; i < replicas; i++ {
				pool, perr := cluster.NewPool(cluster.Options{Self: members[i].Name, Members: members})
				if perr != nil {
					cleanup()
					return nil, nil, perr
				}
				pools = append(pools, pool)
				svc := service.New(service.Options{
					Workers: 2, CacheSize: 64, PeerFill: pool.FillThreshold(),
				})
				svcs = append(svcs, svc)
				slots[i].Store(cluster.NewNode(pool, svc).Handler())
			}
			gwPool, perr := cluster.NewGatewayPool(cluster.Options{Members: members})
			if perr != nil {
				cleanup()
				return nil, nil, perr
			}
			pools = append(pools, gwPool)
			gwTS := httptest.NewServer(cluster.NewGateway(gwPool, gwOpts).Handler())
			servers = append(servers, gwTS)

			env := &serviceEnv{ts: gwTS, client: &http.Client{Timeout: 30 * time.Second}}
			// Prime the shard on its ring owner, so repetitions measure
			// routing over a cached verdict, not the sweep.
			if err := env.do(http.MethodPost, "/v1/threshold", body); err != nil {
				cleanup()
				return nil, nil, fmt.Errorf("priming cluster shard: %w", err)
			}
			return func() error {
				return env.do(http.MethodPost, "/v1/threshold", body)
			}, cleanup, nil
		},
	}
}

// serviceHealthzCase measures GET /healthz — the floor of the HTTP stack
// plus instrumentation middleware, useful to separate handler cost from
// transport cost in the other service cases.
func serviceHealthzCase() Case {
	return Case{
		Name:  "service/healthz",
		Group: "service",
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			env := newServiceEnv()
			return func() error {
				return env.do(http.MethodGet, "/healthz", nil)
			}, env.close, nil
		},
	}
}

// overloadAcquireCase measures the admission controller's uncontended
// grant/release round trip — the fixed tax every admitted sweep pays on
// top of its own cost, which must stay in the nanosecond range.
func overloadAcquireCase() Case {
	return Case{
		Name:  "overload/acquire-release",
		Group: "overload",
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			c := overload.New(overload.Config{MaxConcurrent: 4, TargetLatency: time.Second})
			return func() error {
				p, err := c.Acquire(ctx, overload.Ticket{Client: "bench"})
				if err != nil {
					return err
				}
				p.Release(time.Microsecond)
				return nil
			}, func() {}, nil
		},
	}
}

// serviceThresholdShedCase measures the shed fast path end to end: with
// the worker and admission queue saturated by never-finishing sweeps, a
// cold request must be refused in HTTP-round-trip time — the whole point
// of shedding early is that saying no stays cheap under overload.
func serviceThresholdShedCase() Case {
	body := []byte(`{
	  "system": "dawn", "kernel": "gemm", "problem": "square",
	  "precision": "f64", "config": {"max_dim": 77, "iterations": 8}
	}`)
	return Case{
		Name:  "service/threshold/shed",
		Group: "service",
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			release := make(chan struct{})
			blocked := func(ctx context.Context, sys systems.System, pts []core.ProblemType, precs []core.Precision, cfg core.Config) ([]*core.Series, error) {
				select {
				case <-release:
				case <-ctx.Done():
				}
				return nil, ctx.Err()
			}
			svc := service.New(service.Options{Workers: 1, Queue: 1, Sweep: blocked})
			ts := httptest.NewServer(svc.Handler())
			env := &serviceEnv{svc: svc, ts: ts, client: &http.Client{Timeout: 30 * time.Second}}
			saturator := func(dim int) []byte {
				return []byte(fmt.Sprintf(`{"system":"dawn","kernel":"gemm","precision":"f64","config":{"max_dim":%d}}`, dim))
			}
			done := make(chan struct{}, 2)
			for i := 0; i < 2; i++ {
				go func(dim int) {
					_ = env.do(http.MethodPost, "/v1/threshold", saturator(dim))
					done <- struct{}{}
				}(60 + i)
			}
			// Wait until the worker slot and the admission queue are held.
			for deadline := time.Now().Add(10 * time.Second); ; {
				m := svc.Metrics()
				if m.AdmissionQueued != nil && m.AdmissionQueued() == 1 {
					break
				}
				if time.Now().After(deadline) {
					close(release)
					env.close()
					return nil, nil, fmt.Errorf("saturating the admission queue timed out")
				}
				time.Sleep(time.Millisecond)
			}
			cleanup := func() {
				close(release)
				<-done
				<-done
				env.close()
			}
			return func() error {
				resp, err := env.client.Post(ts.URL+"/v1/threshold", "application/json", bytes.NewReader(body))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					return err
				}
				if resp.StatusCode != http.StatusServiceUnavailable {
					return fmt.Errorf("expected a 503 shed, got %d", resp.StatusCode)
				}
				return nil
			}, cleanup, nil
		},
	}
}

// offloadDecideWarmCase measures offload.Dispatcher's cached decision
// path: one op decides each of 256 already-memoized shapes once, so a
// repetition is long enough for the harness's own overhead to vanish
// against it. This is the per-call routing tax an application pays once
// the memo map is warm, times 256. Its companion test in internal/offload
// asserts only a ratio: a hit's p50 is at most half an uncached
// decision's p50.
func offloadDecideWarmCase() Case {
	const shapes = 256
	return Case{
		Name:  fmt.Sprintf("offload/decide-warm/b%d", shapes),
		Group: "offload",
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			sys, err := systems.ByName("isambard-ai")
			if err != nil {
				return nil, nil, err
			}
			d := offload.New(offload.Options{System: sys})
			calls := make([]offload.Call, shapes)
			for i := range calls {
				calls[i].Kernel = core.GEMM
				calls[i].M = 16 + 4*i
				calls[i].N, calls[i].K = 64, 64
				calls[i].Precision = core.F64
				calls[i].Count = 1
				calls[i].Strategy = xfer.TransferOnce
			}
			decideAll := func() error {
				for _, c := range calls {
					if _, err := d.Decide(ctx, c); err != nil {
						return err
					}
				}
				return nil
			}
			return decideAll, nil, decideAll() // warm every shape before timing
		},
	}
}

// offloadDispatchBatchCase measures POST /v1/dispatch end to end for an
// n-shape batch on the warm path: one priming request evaluates every
// shape, then each repetition is pure decode + cache lookups + encode —
// the steady state of a runtime routing its call stream through the
// service.
func offloadDispatchBatchCase(n int) Case {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"system":"isambard-ai","calls":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"kernel":"gemm","m":%d,"n":64,"k":64,"precision":"f64","count":1,"movement":"once"}`, 16+4*i)
	}
	buf.WriteString(`]}`)
	body := buf.Bytes()
	return Case{
		Name:  fmt.Sprintf("offload/dispatch-batch/n%d", n),
		Group: "offload",
		Prepare: func(ctx context.Context) (func() error, func(), error) {
			env := newServiceEnv()
			if err := env.do(http.MethodPost, "/v1/dispatch", body); err != nil {
				env.close()
				return nil, nil, fmt.Errorf("priming dispatch cache: %w", err)
			}
			return func() error {
				return env.do(http.MethodPost, "/v1/dispatch", body)
			}, env.close, nil
		},
	}
}

func kernelToken(k core.KernelKind) string {
	if k == core.GEMM {
		return "gemm"
	}
	return "gemv"
}

func precToken(p core.Precision) string {
	if p == core.F32 {
		return "f32"
	}
	return "f64"
}
