package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
	"repro/pkg/blobclient"
)

// The cluster-serve workload is an open loop over loopback HTTP: one
// generator sends at a fixed rate through pkg/blobclient to a gateway in
// front of three replicas (service.Server wrapped in cluster.NewNode), all
// with the daemon defaults — 2 workers, queue 8, 256 cache entries,
// hedging off. The path is client -> gateway -> replica -> admission ->
// pool -> sweep -> encode; a tenth of the threshold requests go straight
// to a replica that does not own their shard, so peer fill runs too.

const (
	serveNodes = 3
	// serveRate is the open loop's fixed send rate, about a fifth of the
	// rig's capacity (about 2,000 requests/s) on the 2-vCPU host this
	// benchmark was built on. On a stretch where other tenants halve the
	// host's speed, 600 requests/s saturated the rig and its p90 rose
	// twentyfold; this rate stays below half the capacity even then.
	serveRate = 400
	// serveConns bounds the generator's concurrency: a request that falls
	// due while both are busy waits, and the wait counts in its latency.
	serveConns     = 2
	warmupRequests = 3000
	// serveSegment is how much of the window is sent between two reference
	// slices; a slice runs while no request is in flight.
	serveSegment   = time.Second
	requestTimeout = 5 * time.Second
	// directKey is the client identity of requests sent straight to a
	// replica; the gateway forwards X-API-Key, so a replica can tell the
	// two paths apart when the trace splits its handler spans by origin.
	directKey  = "perfbench-direct"
	gatewayKey = "perfbench-gateway"
)

type rigNode struct {
	name string
	svc  *service.Server
	node *cluster.Node
	ts   *httptest.Server
}

// rig is one built cluster plus the generator's clients.
type rig struct {
	nodes  []*rigNode
	gwPool *cluster.Pool
	gwTS   *httptest.Server
	peerTr *http.Transport
	genTr  *http.Transport
	gw     *blobclient.Client
	direct []*blobclient.Client
	// tr is the tracer the wrappers record into: nil outside the timed
	// window, so warm-up traffic leaves no spans.
	tr atomic.Pointer[tracer]
}

func buildRig(traced bool) (*rig, error) {
	r := &rig{
		peerTr: &http.Transport{MaxIdleConnsPerHost: 16},
		genTr:  &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns},
	}
	peerHTTP := &http.Client{Transport: r.peerTr, Timeout: requestTimeout}
	members := make([]cluster.Member, serveNodes)
	for i := range members {
		n := &rigNode{name: fmt.Sprintf("rep-%d", i), ts: httptest.NewUnstartedServer(nil)}
		r.nodes = append(r.nodes, n)
		members[i] = cluster.Member{Name: n.name, URL: "http://" + n.ts.Listener.Addr().String()}
	}
	for _, n := range r.nodes {
		pool, err := cluster.NewPool(cluster.Options{Self: n.name, Members: members, HTTPClient: peerHTTP})
		if err != nil {
			r.close()
			return nil, err
		}
		opts := service.Options{PeerFill: pool.FillThreshold()}
		if traced {
			opts.PeerFill = r.timedFill(opts.PeerFill)
			opts.Sweep = r.timedSweep
		}
		n.svc = service.New(opts)
		n.node = cluster.NewNode(pool, n.svc)
		n.ts.Config.Handler = r.spanHandler("service.", n.node.Handler(), true)
		n.ts.Start()
	}
	gwPool, err := cluster.NewGatewayPool(cluster.Options{Members: members, HTTPClient: peerHTTP})
	if err != nil {
		r.close()
		return nil, err
	}
	r.gwPool = gwPool
	r.gwTS = httptest.NewServer(r.spanHandler("cluster.gateway.", cluster.NewGateway(gwPool, cluster.GatewayOptions{}).Handler(), false))

	genHTTP := &http.Client{Transport: r.genTr, Timeout: requestTimeout}
	noBreaker := resilience.BreakerConfig{MinRequests: 1 << 30}
	r.gw = blobclient.New(blobclient.Options{BaseURL: r.gwTS.URL, HTTPClient: genHTTP, APIKey: gatewayKey, Breaker: noBreaker})
	for _, n := range r.nodes {
		r.direct = append(r.direct, blobclient.New(blobclient.Options{BaseURL: n.ts.URL, HTTPClient: genHTTP, APIKey: directKey, Breaker: noBreaker}))
	}
	return r, nil
}

func (r *rig) close() {
	if r.gwTS != nil {
		r.gwTS.Close()
	}
	if r.gwPool != nil {
		r.gwPool.Close()
	}
	for _, n := range r.nodes {
		n.ts.Close()
		if n.node != nil {
			n.node.Close()
		}
	}
	r.genTr.CloseIdleConnections()
	r.peerTr.CloseIdleConnections()
}

// spanHandler records one span per request around h, named by endpoint
// and — for a replica — by origin: gateway, direct client or peer fill.
func (r *rig) spanHandler(prefix string, h http.Handler, replica bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := r.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		name := prefix + strings.TrimPrefix(req.URL.Path, "/v1/")
		if replica {
			name += ".handler." + origin(req)
		}
		tr.record(name, 0, start, time.Now())
	})
}

func origin(req *http.Request) string {
	switch {
	case req.Header.Get(service.PeerFillHeader) != "":
		return "fill"
	case req.Header.Get("X-API-Key") == directKey:
		return "direct"
	}
	return "gateway"
}

// timedSweep wraps the service's sweep function, core.Run.
func (r *rig) timedSweep(ctx context.Context, sys systems.System, problems []core.ProblemType, precisions []core.Precision, cfg core.Config) ([]*core.Series, error) {
	start := time.Now()
	out, err := core.Run(ctx, sys, problems, precisions, cfg)
	r.tr.Load().record("service.sweep", 0, start, time.Now())
	return out, err
}

// timedFill wraps the pool's peer-fill hook; a declined fill (nil, nil:
// this replica owns the shard) is not a fill and records nothing.
func (r *rig) timedFill(fill service.PeerFillFunc) service.PeerFillFunc {
	return func(ctx context.Context, req service.ThresholdRequest, key string) (*service.ThresholdResponse, error) {
		start := time.Now()
		resp, err := fill(ctx, req, key)
		if resp != nil || err != nil {
			r.tr.Load().record("cluster.peer_fill", 0, start, time.Now())
		}
		return resp, err
	}
}

// thr is one strategy's threshold, as compared between reply and reference.
type thr struct {
	found   bool
	m, n, k int
}

// shot is the generator's record of one request.
type shot struct {
	kind                reqKind
	latency, rtt, lag   time.Duration
	err                 error
	wrong               bool // the reply disagreed with the in-process reference
	thresholds          [3]thr
	cached, dedup, fill bool
}

// serveInputs are the seeded inputs, generated before the rig exists.
type serveInputs struct {
	keys     []service.ThresholdRequest
	shapes   []callShape
	warm     []request
	window   []request
	nonOwner []int // per key: a replica that does not own the key's shard
}

func (in *serveInputs) send(ctx context.Context, r *rig, q request) shot {
	s := shot{kind: q.kind}
	switch q.kind {
	case kindThreshold:
		cl := r.gw
		if q.direct {
			cl = r.direct[in.nonOwner[q.key]]
		}
		resp, err := cl.Threshold(ctx, in.keys[q.key])
		if s.err = err; err == nil {
			for i, st := range xfer.Strategies {
				b := resp.Thresholds[st.String()]
				s.thresholds[i] = thr{b.Found, b.M, b.N, b.K}
			}
			s.cached, s.dedup, s.fill = resp.Cached, resp.Deduplicated, resp.FilledFrom != ""
		}
	case kindAdvise:
		req := service.AdviseRequest{Calls: make([]service.CallRequest, len(q.calls))}
		for i, c := range q.calls {
			req.Calls[i] = in.shapes[c].wire
		}
		resp, err := r.gw.Advise(ctx, req)
		if s.err = err; err == nil {
			s.wrong = !in.adviseMatches(resp, q.calls)
		}
	case kindDispatch:
		req := service.DispatchRequest{System: q.system, Calls: make([]service.DispatchCallRequest, len(q.calls))}
		for i, c := range q.calls {
			req.Calls[i] = service.DispatchCallRequest{CallRequest: in.shapes[c].wire}
		}
		resp, err := r.gw.DispatchBatch(ctx, req)
		if s.err = err; err == nil {
			s.wrong = !in.dispatchMatches(resp, q)
		}
	}
	return s
}

// adviseMatches compares an advise reply with advisor.AdviseAll run in
// process on the same calls.
func (in *serveInputs) adviseMatches(resp *service.AdviseResponse, calls []int) bool {
	want, err := advisor.AdviseAll(systems.All(), in.typed(calls))
	if err != nil || len(want) != len(resp.Verdicts) {
		return false
	}
	for i, v := range want {
		got := resp.Verdicts[i]
		// Exact: both sides are the same model evaluation, and JSON
		// round-trips a float64 exactly.
		if got.System != v.System || got.CPUSeconds != v.CPUSeconds || got.GPUSeconds != v.GPUSeconds || got.Offload != v.Offload {
			return false
		}
	}
	return true
}

// dispatchMatches checks each decision's modeled times against
// advisor.Times and its device against the raw comparison: a decision
// the hysteresis band held must name the other device, any other the
// faster one.
func (in *serveInputs) dispatchMatches(resp *service.DispatchResponse, q request) bool {
	sys, err := systems.ByName(q.system)
	if err != nil || len(resp.Decisions) != len(q.calls) {
		return false
	}
	for i, c := range q.calls {
		cpu, gpu := advisor.Times(sys, in.shapes[c].typed)
		d := resp.Decisions[i]
		raw := "cpu"
		if gpu < cpu {
			raw = "gpu"
		}
		if d.CPUSeconds != cpu || d.GPUSeconds != gpu || (d.Device == raw) == d.Held {
			return false
		}
	}
	return true
}

func (in *serveInputs) typed(calls []int) []advisor.Call {
	out := make([]advisor.Call, len(calls))
	for i, c := range calls {
		out[i] = in.shapes[c].typed
	}
	return out
}

// reference runs the sweep a threshold request names in process, the way
// the service resolves it (validation off, roofline model).
func reference(req service.ThresholdRequest) ([3]thr, error) {
	var out [3]thr
	sys, err := systems.ByName(req.System)
	if err != nil {
		return out, err
	}
	kernel, err := core.ParseKernelKind(req.Kernel)
	if err != nil {
		return out, err
	}
	pt, err := core.FindProblem(kernel, req.Problem)
	if err != nil {
		return out, err
	}
	prec, err := core.ParsePrecision(req.Precision)
	if err != nil {
		return out, err
	}
	cfg := core.Config{MaxDim: req.Config.MaxDim, Iterations: req.Config.Iterations, Alpha: 1, Mode: core.ModeBoth}
	ser, err := core.RunProblem(context.Background(), sys, pt, prec, cfg)
	if err != nil {
		return out, err
	}
	for i, st := range xfer.Strategies {
		t := ser.Thresholds[st]
		out[i] = thr{t.Found, t.Dims.M, t.Dims.N, t.Dims.K}
	}
	return out, nil
}

// drive sends reqs with serveConns workers. With an interval the loop is
// open (request i is due at start + i*interval); without one it is closed
// and each worker sends as soon as its last reply arrived.
func (in *serveInputs) drive(r *rig, reqs []request, sched schedule) []shot {
	shots := make([]shot, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := time.Now()
				if sched.interval > 0 {
					due = sched.due(i)
					time.Sleep(time.Until(due))
				}
				sent := time.Now()
				s := in.send(context.Background(), r, reqs[i])
				done := time.Now()
				s.latency, s.lag = latencyFromDue(due, sent, done)
				s.rtt = done.Sub(sent)
				r.tr.Load().record("blobclient."+reqs[i].kind.String(), 0, sent, done)
				shots[i] = s
			}
		}()
	}
	wg.Wait()
	return shots
}

// counters is a snapshot of the replicas' and gateway's own counters; the
// window's figures are the difference of two snapshots.
type counters struct {
	hits, misses, sweeps, fills int64
	decisions, dispatchHits     int64
	reroutes, breakerSkips      float64
	admission                   map[string]float64 // le bound -> cumulative count
}

func (r *rig) snapshot() (counters, error) {
	c := counters{admission: map[string]float64{}}
	for _, n := range r.nodes {
		m := n.svc.Metrics()
		c.hits += m.CacheHits.Value()
		c.misses += m.CacheMisses.Value()
		c.sweeps += m.SweepsStarted.Value()
		c.fills += m.PeerFillServes.Value()
		c.decisions += m.DispatchDecisions.Value()
		c.dispatchHits += m.DispatchCacheHits.Value()
		text, err := scrape(n.ts.URL)
		if err != nil {
			return c, err
		}
		for le, v := range promSeries(text, "blob_admission_seconds_bucket") {
			c.admission[le] += v
		}
	}
	text, err := scrape(r.gwTS.URL)
	if err != nil {
		return c, err
	}
	c.reroutes = promSeries(text, "blob_gateway_reroutes_total")[""]
	c.breakerSkips = promSeries(text, "blob_gateway_breaker_skips_total")[""]
	return c, nil
}

func scrape(base string) (string, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// promSeries returns the samples of one metric from a Prometheus text
// exposition, keyed by the value of its le label ("" when it has none).
func promSeries(text, name string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		le := ""
		if strings.HasPrefix(rest, `{le="`) {
			end := strings.Index(rest, `"}`)
			if end < 0 {
				continue
			}
			le, rest = rest[len(`{le="`):end], rest[end+2:]
		}
		if !strings.HasPrefix(rest, " ") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			out[le] = v
		}
	}
	return out
}

// histQuantileMs returns the upper bound, in ms, of the histogram bucket
// holding quantile q of the counts that arrived between two cumulative
// snapshots: a bucket bound, so it moves in the histogram's steps.
func histQuantileMs(before, after map[string]float64, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	var total float64
	for le, v := range after {
		bound, err := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			total = v - before[le]
			continue
		}
		if err == nil {
			bs = append(bs, bucket{bound, v - before[le]})
		}
	}
	if total == 0 {
		return 0
	}
	slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
	for _, b := range bs {
		if b.n >= q*total {
			return b.le * 1e3
		}
	}
	return bs[len(bs)-1].le * 1e3
}

// queueSampler tracks the deepest admission queue plus pool backlog any
// replica reported while it ran.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}
	max  int
}

func sampleQueues(nodes []*rigNode) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-tick.C:
				for _, n := range nodes {
					m := n.svc.Metrics()
					q.max = max(q.max, m.QueueDepth()+m.AdmissionQueued())
				}
			}
		}
	}()
	return q
}

// halt stops the sampler and waits for it; max is safe to read after.
func (q *queueSampler) halt() {
	close(q.stop)
	<-q.done
}

func clusterServe(cfg config) (outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &serveInputs{
		keys:   thresholdKeys(rng, serveMix.keyspace),
		shapes: shapeSet(rng, serveMix.shapes),
	}
	in.warm = serveMix.requests(rng, warmupRequests)
	in.window = serveMix.requests(rng, int(serveRate*cfg.seconds))

	var closedRate float64
	build := func() (*rig, error) {
		r, err := buildRig(cfg.traced())
		if err != nil {
			return nil, err
		}
		if in.nonOwner == nil {
			in.nonOwner = nonOwners(r, in.keys)
		}
		t0 := time.Now()
		for _, s := range in.drive(r, in.warm, schedule{}) {
			if s.err != nil {
				r.close()
				return nil, fmt.Errorf("warm-up: %w", s.err)
			}
		}
		closedRate = float64(len(in.warm)) / time.Since(t0).Seconds()
		return r, nil
	}
	r, setupS, err := timeSetups(cfg.cal, build, (*rig).close)
	if err != nil {
		return outcome{}, err
	}
	defer r.close()
	cfg.logf("cluster-serve: closed-loop warm-up over %d connections ran at %.0f requests/s (from a cold cache); the window sends %d/s",
		serveConns, closedRate, serveRate)

	before, err := r.snapshot()
	if err != nil {
		return outcome{}, err
	}
	var sampler *queueSampler
	if cfg.traced() {
		sampler = sampleQueues(r.nodes)
		r.tr.Store(cfg.tr)
	}
	tk := cfg.cal.ticker()
	perSegment := int(serveRate * serveSegment.Seconds())
	shots := make([]shot, 0, len(in.window))
	gc0, cpu0, t0 := readGCClock(), cpuTime(), time.Now()
	for lo := 0; lo < len(in.window); lo += perSegment {
		tk.slice()
		sched := schedule{start: time.Now(), interval: time.Second / serveRate}
		shots = append(shots, in.drive(r, in.window[lo:min(lo+perSegment, len(in.window))], sched)...)
	}
	elapsed, cpu := time.Since(t0)-tk.wall, cpuTime()-cpu0-tk.cpu
	gc1 := readGCClock()
	r.tr.Store(nil)
	if sampler != nil {
		sampler.halt()
	}
	heap := liveHeapMB()
	after, err := r.snapshot()
	if err != nil {
		return outcome{}, err
	}

	// Correctness: every threshold verdict against a memoized in-process
	// sweep of the same request, computed outside the window.
	memo := map[int][3]thr{}
	out := outcome{metrics: map[string]float64{}, layers: []string{
		"advisor.", "offload.", "service.", "overload.", "cluster.", "blobclient.", "loadgen.", "sim.", "runtime."}}
	var lat, lags []float64
	var ok int64
	kindLat := make([][]float64, numKinds)
	var computed, deduped int64
	for i, s := range shots {
		out.attempted++
		q := in.window[i]
		if s.err == nil && q.kind == kindThreshold {
			want, seen := memo[q.key]
			if !seen {
				if want, err = reference(in.keys[q.key]); err != nil {
					return out, err
				}
				memo[q.key] = want
			}
			s.wrong = s.thresholds != want
			if !s.cached && !s.fill {
				computed++
				if s.dedup {
					deduped++
				}
			}
		}
		lat = append(lat, ms(s.latency))
		lags = append(lags, ms(s.lag))
		if s.err != nil || s.wrong {
			out.failed++
			if out.failed <= 5 {
				cfg.logf("cluster-serve: request %d (%s) failed: err=%v wrong=%v", i, q.kind, s.err, s.wrong)
			}
			continue
		}
		ok++
		kindLat[q.kind] = append(kindLat[q.kind], ms(s.rtt))
	}
	cfg.logf("cluster-serve: %d requests at %d/s over %.2fs, %d ok, %d failed; %d distinct threshold keys checked against in-process sweeps",
		len(shots), serveRate, elapsed.Seconds(), ok, out.failed, len(memo))
	cfg.logf("cluster-serve: p99_ms=%.4f (diagnostic only: %d samples, %d beyond it)  loadgen lag p99=%.4f ms",
		percentile(lat, 99), len(lat), beyond(len(lat), 99), percentile(lags, 99))
	hits := ratio{float64(after.hits - before.hits), float64(after.hits + after.misses - before.hits - before.misses)}
	dedup := ratio{float64(deduped), float64(computed)}
	dispatch := ratio{float64(after.dispatchHits - before.dispatchHits), float64(after.decisions - before.decisions)}
	gcShare := gcFraction(gc0, gc1)
	cfg.logf("cluster-serve: cache hits %s, deduplicated misses %s, dispatch shape-cache hits %s, GC share of CPU %s; sweeps %d, peer-fill serves %d",
		hits, dedup, dispatch, gcShare, after.sweeps-before.sweeps, after.fills-before.fills)

	out.e2e = map[string]float64{
		"setup_s":       setupS,
		"live_heap_mb":  heap,
		"ops_per_s":     float64(ok) / elapsed.Seconds(),
		"p50_ms":        percentile(lat, 50),
		"p90_ms":        percentile(lat, 90),
		"cpu_ms_per_op": ms(cpu) / float64(max(ok, 1)),
	}
	// The loop is open: requests complete at the offered rate whatever the
	// host's speed. The median request, a cache hit, spends most of its
	// time waiting on wake-ups and the loopback stack, not computing, so it
	// does not scale with the speed of the reference loop either.
	out.asMeasured = []string{"ops_per_s", "p50_ms"}
	if !cfg.traced() {
		return out, nil
	}
	m := out.metrics
	m["offload.dispatch_hit_ratio"] = dispatch.value()
	m["offload.dispatch_decisions"] = dispatch.den
	m["service.cache_hit_ratio"] = hits.value()
	m["service.cache_lookups"] = hits.den
	m["service.dedup_ratio"] = dedup.value()
	m["service.sweeps"] = float64(after.sweeps - before.sweeps)
	m["service.peer_fill_serves"] = float64(after.fills - before.fills)
	m["cluster.reroutes"] = after.reroutes - before.reroutes
	m["cluster.breaker_skips"] = after.breakerSkips - before.breakerSkips
	m["overload.admission_wait_ms.p90"] = histQuantileMs(before.admission, after.admission, 0.9)
	m["service.queue_depth.max"] = float64(sampler.max)
	m["loadgen.lag_ms.p99"] = percentile(lags, 99)
	m["runtime.gc_cpu_fraction"] = gcShare.value()
	sweepMs := cfg.tr.durationsMs("service.sweep")
	m["service.sweep_ms.p50"] = percentile(sweepMs, 50)
	m["service.sweep_ms.p90"] = percentile(sweepMs, 90)
	m["cluster.peer_fill_ms.p50"] = percentile(cfg.tr.durationsMs("cluster.peer_fill"), 50)
	var gwNs, gwChildNs int64
	var gwCount int
	for k := kindThreshold; k < numKinds; k++ {
		ep := k.String()
		var handler []float64
		for _, o := range []string{"gateway", "direct", "fill"} {
			handler = append(handler, cfg.tr.durationsMs("service."+ep+".handler."+o)...)
		}
		m["service."+ep+".handler_ms.p50"] = percentile(handler, 50)
		m["service."+ep+".handler_ms.p90"] = percentile(handler, 90)
		m["blobclient."+ep+".rtt_ms.p50"] = percentile(kindLat[k], 50)
		m["blobclient."+ep+".rtt_ms.p90"] = percentile(kindLat[k], 90)
		gwNs += cfg.tr.totalNs("cluster.gateway." + ep)
		gwChildNs += cfg.tr.totalNs("service." + ep + ".handler.gateway")
		gwCount += len(cfg.tr.named("cluster.gateway." + ep))
	}
	m["cluster.gateway.self_ms"] = float64(selfNs(gwNs, gwChildNs)) / 1e6 / float64(max(gwCount, 1))

	// The advise batches of the window, replayed through the advisor alone.
	var batches int
	t0 = time.Now()
	for _, q := range in.window {
		if q.kind == kindAdvise {
			if _, err := advisor.AdviseAll(systems.All(), in.typed(q.calls)); err != nil {
				return out, err
			}
			batches++
		}
	}
	m["advisor.adviseall_us"] = float64(time.Since(t0).Microseconds()) / float64(max(batches, 1))
	probe := simProbe(paperGrid())
	m["sim.cpumodel.ns_per_call"] = probe.cpuNs
	m["sim.gpumodel.ns_per_call"] = probe.gpuNs
	m["sim.blackbox.ns_per_call"] = probe.blackboxNs
	return out, nil
}

// nonOwners picks, for every key, a replica that is not the ring owner of
// its shard, alternating between the two candidates.
func nonOwners(r *rig, keys []service.ThresholdRequest) []int {
	index := map[string]int{}
	for i, n := range r.nodes {
		index[n.name] = i
	}
	out := make([]int, len(keys))
	for i, k := range keys {
		route, _ := service.ThresholdRouteKey(k, 0)
		owner := index[r.gwPool.Owners(route, 1)[0]]
		out[i] = (owner + 1 + i%2) % serveNodes
	}
	return out
}
