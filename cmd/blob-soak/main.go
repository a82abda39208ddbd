// blob-soak is the deterministic overload/soak harness for the blob-served
// service. It stands up the service in-process, drives scripted load
// profiles against it with seeded closed-loop clients, and asserts the
// overload SLOs that the admission-control layer (DESIGN.md §12) exists to
// uphold:
//
//   - the fast tiers answer fast: the p99 latency over shed responses and
//     cache hits stays under the SLO even at 4x sweep capacity — immediate
//     paths are never queued behind cold sweeps;
//   - the service sheds instead of melting: every rejection carries one of
//     the known machine-readable reasons, and some work still completes;
//   - nothing leaks: after each profile drains, the goroutine count is
//     back at its pre-profile baseline;
//   - chaos does not corrupt: with a seeded fault plan armed, every
//     threshold verdict the service does serve is byte-identical to the
//     fault-free reference.
//
// Profiles (select with -profiles, comma-separated):
//
//	ramp     client count doubles phase by phase up to 4x sweep capacity
//	spike    idle baseline, then a sudden 4x burst
//	sustain  4x capacity for the whole window, AIMD limiter engaged
//	chaos    sustain plus a seeded fault-injection plan on the backends
//	dispatch 4x capacity of /v1/dispatch batches: the decision hot path
//	         must stay fast and the memo map must absorb the repeats;
//	         a final probe of every working-set shape must route exactly
//	         as a fresh in-process dispatcher does
//	cluster  3-replica consistent-hash cluster behind blob-gateway, with
//	         a replica killed and rejoined mid-run: cache hits must scale
//	         ~linearly vs a single node, every verdict must match the
//	         single-node reference byte for byte, and no request may hang
//	         past the deadline budget (DESIGN.md §16)
//	partition the same cluster under a seeded netfault plan instead of a
//	         clean kill: a gateway-side partition/heal/flap schedule, a
//	         permanently slow replica (hedged requests must win), and
//	         truncated/bit-flipped bodies on the direct edges (the client
//	         integrity checks must retry, never believe them); verdict
//	         digests must match an unfaulted replay byte for byte
//	         (DESIGN.md §17)
//
// All traffic flows through pkg/blobclient — the same typed client the
// README documents — so the soak doubles as an end-to-end exercise of the
// v1 envelope contract.
//
// The run writes a schema-versioned SOAK_<tag>.json artifact (see
// EXPERIMENTS.md) and exits non-zero when any profile violates its SLOs:
//
//	blob-soak -seed 1 -short -tag ci
//	blob-soak -profiles sustain,chaos -workers 2 -o /tmp/soak.json
//
// The request schedule is deterministic under -seed; wall-clock latencies
// are measured, so the artifact records them but the pass verdict depends
// only on the SLO ceilings.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/offload"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/sim/efftab"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
	"repro/pkg/blobclient"
)

// SchemaVersion tags the artifact format; readers refuse to interpret a
// version they do not know.
const SchemaVersion = "blob-soak/v1"

// The SLO ceilings. fastP99SLO bounds the immediate tiers (cache hits,
// dispatch batches and every shed but "abandoned"); goroutineTolerance absorbs runtime bookkeeping noise on
// top of the pre-profile baseline.
const (
	fastP99SLO         = 250 * time.Millisecond
	maxShedRate        = 0.99
	goroutineTolerance = 8
)

// knownReasons are the only rejection reasons a healthy overloaded
// service may emit; anything else is a bug, not load shedding.
var knownReasons = map[string]bool{
	"queue_full": true, "over_quota": true, "deadline_budget": true,
	"breaker_open": true, "shutting_down": true, "deadline_exceeded": true,
	"abandoned": true,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "blob-soak:", err)
		os.Exit(1)
	}
}

// phase is one step of a profile's load schedule.
type phase struct {
	clients  int
	fraction float64 // of the profile window
}

// profile is one scripted overload scenario.
type profile struct {
	name     string
	phases   []phase
	faults   bool // arm the chaos fault plan
	fair     bool // enable per-client fair share
	aimd     bool // enable the AIMD target latency
	dispatch bool // drive /v1/dispatch batches instead of threshold sweeps
	// run, when set, replaces the load phases with a cluster chaos run
	// (cluster.go, partition.go).
	run func(seed int64, short bool) ProfileResult
}

// profiles returns the scripted scenarios for a given worker count; 4x
// capacity is the saturation point the acceptance criteria name.
func allProfiles(workers int) []profile {
	burst := 4 * workers
	return []profile{
		{name: "ramp", phases: []phase{
			{1, 0.25}, {workers, 0.25}, {2 * workers, 0.25}, {burst, 0.25}}},
		{name: "spike", fair: true, phases: []phase{{1, 0.5}, {burst, 0.5}}},
		{name: "sustain", aimd: true, phases: []phase{{burst, 1}}},
		{name: "chaos", faults: true, phases: []phase{{burst, 1}}},
		{name: "dispatch", dispatch: true, phases: []phase{{burst, 1}}},
		{name: "cluster", run: runClusterProfile, phases: []phase{{clusterNodes, 1}}},
		{name: "partition", run: runPartitionProfile, phases: []phase{{partitionNodes, 1}}},
	}
}

// shot is one recorded request outcome.
type shot struct {
	status  int
	reason  string
	cached  bool
	latency time.Duration
	dim     int
	// thresholds is the canonical verdict rendering for 200 responses —
	// the chaos profile compares these against the fault-free reference.
	thresholds string
	// decisions/hits are the dispatch profile's per-batch routing counts.
	decisions int
	hits      int
	// filledFrom names the peer that served this verdict over the
	// cluster's peer-fill path ("" when answered locally).
	filledFrom string
}

// ProfileResult is the artifact's per-profile record.
type ProfileResult struct {
	Name       string         `json:"name"`
	DurationMs float64        `json:"duration_ms"`
	PeakLoad   int            `json:"peak_clients"`
	Requests   int            `json:"requests"`
	OK         int            `json:"ok"`
	Cached     int            `json:"cached"`
	Sheds      map[string]int `json:"sheds,omitempty"`
	Statuses   map[string]int `json:"statuses"`
	// FastP99Ms is the p99 latency over the immediate tiers: admission
	// sheds and cache hits. The SLO applies to this number.
	FastP99Ms         float64 `json:"fast_p99_ms"`
	ShedRate          float64 `json:"shed_rate"`
	GoroutineBaseline int     `json:"goroutine_baseline"`
	GoroutineAfter    int     `json:"goroutine_after"`
	// Decisions/DispatchHits/DispatchHitRate are set by the dispatch
	// profile: total routing decisions, how many the memo map
	// answered, and their ratio (the profile's warm-cache SLO).
	Decisions       int     `json:"decisions,omitempty"`
	DispatchHits    int     `json:"dispatch_hits,omitempty"`
	DispatchHitRate float64 `json:"dispatch_hit_rate,omitempty"`
	// The cluster profile's chaos-proof numbers: cache-hit rates for the
	// cluster run and the identical single-node schedule, their ratio
	// (the linear-scaling SLO), successful peer cache fills, and the
	// worst request latency observed across the kill/rejoin window.
	ClusterHitRate float64 `json:"cluster_hit_rate,omitempty"`
	SingleHitRate  float64 `json:"single_hit_rate,omitempty"`
	HitScaling     float64 `json:"hit_scaling,omitempty"`
	PeerFills      int     `json:"peer_fills,omitempty"`
	MaxLatencyMs   float64 `json:"max_latency_ms,omitempty"`
	// HedgeWins/FaultsInjected are set by the partition profile: hedged
	// requests the gateway answered from the backup owner, and total
	// faults its netfault injectors fired across the run.
	HedgeWins       int      `json:"hedge_wins,omitempty"`
	FaultsInjected  int      `json:"faults_injected,omitempty"`
	VerdictDigest   string   `json:"verdict_digest,omitempty"`
	ReferenceDigest string   `json:"reference_digest,omitempty"`
	Violations      []string `json:"violations,omitempty"`
	Pass            bool     `json:"pass"`
}

// Artifact is one SOAK_<tag>.json.
type Artifact struct {
	SchemaVersion string          `json:"schema_version"`
	GeneratedAt   time.Time       `json:"generated_at"`
	Host          efftab.Host     `json:"host"`
	Seed          int64           `json:"seed"`
	Short         bool            `json:"short"`
	Workers       int             `json:"workers"`
	SweepCostMs   float64         `json:"sweep_cost_ms"`
	FastP99SLOMs  float64         `json:"fast_p99_slo_ms"`
	MaxShedRate   float64         `json:"max_shed_rate"`
	Profiles      []ProfileResult `json:"profiles"`
	Pass          bool            `json:"pass"`
}

func run() error {
	var (
		seed      = flag.Int64("seed", 1, "seed for the request schedule (deterministic per seed)")
		sel       = flag.String("profiles", "ramp,spike,sustain,chaos,dispatch,cluster,partition", "comma-separated profiles to run")
		short     = flag.Bool("short", false, "short windows (~2s per profile): the verify-gate mode")
		tag       = flag.String("tag", "dev", "artifact tag; default output is SOAK_<tag>.json")
		out       = flag.String("o", "", "output path (overrides the tag-derived name)")
		workers   = flag.Int("workers", 2, "sweep worker count of the service under test")
		sweepCost = flag.Duration("sweep-cost", 20*time.Millisecond, "artificial cost added to every sweep (creates saturation)")
		planPath  = flag.String("fault-plan", "", "fault plan for the chaos profile (default: built-in transient-fault plan)")
		quiet     = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}

	window := 8 * time.Second
	if *short {
		window = 2 * time.Second
	}
	plan, err := chaosPlan(*planPath)
	if err != nil {
		return err
	}

	selected := map[string]bool{}
	for _, name := range strings.Split(*sel, ",") {
		selected[strings.TrimSpace(name)] = true
	}
	art := Artifact{
		SchemaVersion: SchemaVersion,
		GeneratedAt:   time.Now().UTC(),
		Host:          efftab.CurrentHost(),
		Seed:          *seed,
		Short:         *short,
		Workers:       *workers,
		SweepCostMs:   float64(*sweepCost) / float64(time.Millisecond),
		FastP99SLOMs:  float64(fastP99SLO) / float64(time.Millisecond),
		MaxShedRate:   maxShedRate,
		Pass:          true,
	}
	ran := map[string]bool{}
	for _, p := range allProfiles(*workers) {
		if !selected[p.name] {
			continue
		}
		ran[p.name] = true
		if !*quiet {
			fmt.Fprintf(os.Stderr, "soak: profile %-8s window %s peak %d clients\n",
				p.name, window, p.phases[len(p.phases)-1].clients)
		}
		var res ProfileResult
		if p.run != nil {
			res = p.run(*seed, *short)
		} else {
			res = runProfile(p, *workers, *seed, window, *sweepCost, plan)
		}
		if !res.Pass {
			art.Pass = false
		}
		art.Profiles = append(art.Profiles, res)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "soak: profile %-8s %s  requests=%d ok=%d shed_rate=%.2f fast_p99=%.1fms\n",
				res.Name, passStr(res.Pass), res.Requests, res.OK, res.ShedRate, res.FastP99Ms)
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "soak:   violation: %s\n", v)
			}
		}
	}
	for name := range selected {
		if name != "" && !ran[name] {
			return fmt.Errorf("unknown profile %q (have ramp, spike, sustain, chaos, dispatch, cluster, partition)", name)
		}
	}
	if len(art.Profiles) == 0 {
		return fmt.Errorf("no profiles selected")
	}

	path := *out
	if path == "" {
		path = "SOAK_" + *tag + ".json"
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "soak: wrote %s (%s)\n", path, passStr(art.Pass))
	}
	if !art.Pass {
		return fmt.Errorf("SLO violations (see %s)", path)
	}
	return nil
}

func passStr(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// chaosPlan loads the operator's plan or falls back to the built-in one:
// transient GPU faults only, which the sweep retry budget absorbs without
// changing any result — the point of the chaos profile is proving
// verdicts survive faults, not manufacturing failures.
func chaosPlan(path string) (*faultinject.Plan, error) {
	if path != "" {
		return faultinject.LoadPlan(path)
	}
	// A sweep makes thousands of backend calls, so the per-call fault
	// probability is kept small enough that a 5-attempt retry budget
	// absorbs every transient (0.02^5 per call is negligible even across
	// a full soak window).
	return faultinject.ParsePlan([]byte(
		`{"seed": 7, "rules": [{"backend": "gpu", "probability": 0.02, "kind": "transient"}]}`))
}

// The sweep-size working set: randomDim draws from ~500 distinct sweep
// sizes — wide enough that the result cache (256 entries) cannot absorb
// the load and cold sweeps keep arriving for the admission layer to
// arbitrate. hotDim sits outside the random range; it is warmed before
// the load starts and must keep answering from the cache throughout.
func randomDim(rng *rand.Rand) int { return 24 + 2*rng.Intn(500) }

const hotDim = 2048

// The dispatch profile's working set: batches of dispatchBatchSize calls
// drawn from dispatchShapes distinct GEMM shapes. The set is small
// enough that the dispatcher's memo map must absorb nearly everything
// after the first few batches — that warm-cache hit rate is the SLO.
const (
	dispatchBatchSize = 64
	dispatchShapes    = 200
	dispatchHitFloor  = 0.5
	dispatchSystem    = "isambard-ai"
)

func thresholdReq(dim int) service.ThresholdRequest {
	req := service.ThresholdRequest{System: "dawn", Kernel: "gemv", Precision: "f64"}
	req.Config.MaxDim = dim
	return req
}

// soakBreakerOff keeps pkg/blobclient's client-side breaker out of the
// experiment: the soak exists to observe the server shedding, and a
// breaker that opens under that shed storm would replace server verdicts
// with client-side ErrOpen refusals.
var soakBreakerOff = resilience.BreakerConfig{MinRequests: 1 << 30}

// soakClients builds the per-identity typed clients: one plain, one that
// stamps the tight X-Deadline-Ms used by the deadline-shedding slice.
func soakClients(url string, hc *http.Client, id int) (plain, tight *blobclient.Client) {
	key := fmt.Sprintf("client-%d", id)
	plain = blobclient.New(blobclient.Options{
		BaseURL: url, HTTPClient: hc, APIKey: key, Breaker: soakBreakerOff})
	tight = blobclient.New(blobclient.Options{
		BaseURL: url, HTTPClient: hc, APIKey: key, DeadlineMs: 10, Breaker: soakBreakerOff})
	return plain, tight
}

// runProfile stands up a fresh server, drives the profile's phases, and
// scores the outcome against the SLOs.
func runProfile(p profile, workers int, seed int64, window time.Duration, sweepCost time.Duration, plan *faultinject.Plan) ProfileResult {
	res := newProfileResult(p.name, p.phases[len(p.phases)-1].clients)
	opts := service.Options{
		Workers:        workers,
		Queue:          2 * workers,
		RequestTimeout: 2 * time.Second,
		Resilience:     core.Resilience{MaxAttempts: 5},
		Sweep:          costedSweep(sweepCost, nil),
	}
	if p.aimd {
		opts.TargetLatency = sweepCost / 2 // every sweep overshoots: AIMD engages
	}
	if p.fair {
		opts.FairShareRate = 20
		opts.FairShareBurst = 2 * workers
	}
	if p.faults {
		inj := plan.Arm()
		opts.Inject = inj
		opts.Sweep = costedSweep(sweepCost, inj)
	}
	svc := service.New(opts)
	ts := httptest.NewServer(svc.Handler())
	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}

	// Warm the hot entry while the service is idle: the threshold
	// profiles warm the result cache's hot dim, the dispatch profile
	// warms the dispatcher's memo map with one full-working-set batch.
	warmer := blobclient.New(blobclient.Options{
		BaseURL: ts.URL, HTTPClient: client, Breaker: soakBreakerOff})
	var hotWarmed bool
	if p.dispatch {
		warm, err := warmer.DispatchBatch(context.Background(), dispatchReq(rand.New(rand.NewSource(seed))))
		hotWarmed = err == nil && len(warm.Decisions) == dispatchBatchSize
	} else {
		warm, err := warmer.Threshold(context.Background(), thresholdReq(hotDim))
		hotWarmed = err == nil && len(warm.Thresholds) > 0
	}

	began := time.Now()
	var shots []shot
	for _, ph := range p.phases {
		shots = append(shots, runPhase(p, client, ts.URL, ph, seed, time.Duration(float64(window)*ph.fraction))...)
	}
	res.DurationMs = float64(time.Since(began)) / float64(time.Millisecond)
	if p.dispatch {
		probeDispatch(&res, warmer, dispatchReference())
	}

	// Drain and count goroutines once everything is torn down.
	ts.Close()
	svc.Close()
	transport.CloseIdleConnections()
	res.GoroutineAfter = settleGoroutines(res.GoroutineBaseline)

	score(&res, shots, hotWarmed)
	if p.dispatch {
		scoreDispatch(&res, shots)
	}
	if p.faults {
		verifyVerdicts(&res, shots, workers)
	}
	return res
}

// costedSweep wraps core.Run with an artificial per-sweep cost (so a
// small worker pool saturates at scripted load) and, for the chaos
// profile, the armed fault injector on the sim backends.
func costedSweep(cost time.Duration, inj faultinject.Point) service.SweepFunc {
	return func(ctx context.Context, sys systems.System, pts []core.ProblemType, precs []core.Precision, cfg core.Config) ([]*core.Series, error) {
		if inj != nil {
			sys.CPU.Inject = inj
			sys.GPU.Inject = inj
		}
		select {
		case <-time.After(cost):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return core.Run(ctx, sys, pts, precs, cfg)
	}
}

// runPhase runs one phase's closed-loop clients and merges their shots.
// Each client derives its own PRNG from the run seed, so the request
// schedule is reproducible per (seed, profile, phase).
func runPhase(p profile, client *http.Client, url string, ph phase, seed int64, d time.Duration) []shot {
	stop := time.Now().Add(d)
	var mu sync.Mutex
	var all []shot
	var wg sync.WaitGroup
	for i := 0; i < ph.clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(id)))
			plain, tight := soakClients(url, client, id)
			var mine []shot
			for n := 0; time.Now().Before(stop); n++ {
				var s *shot
				var err error
				switch {
				case p.dispatch:
					s, err = dispatchShot(plain, rng)
				default:
					dim := randomDim(rng)
					if n%7 == 3 {
						dim = hotDim // every client revisits the hot cached entry
					}
					cl := plain
					if n%5 == 4 {
						// A slice of traffic carries a client deadline tighter
						// than the sweep cost: once the p50 estimator warms,
						// these shed deterministically on budget.
						cl = tight
					}
					s, err = thresholdShot(cl, dim)
				}
				if err == nil {
					mine = append(mine, *s)
				}
				time.Sleep(2 * time.Millisecond) // think time bounds the spin
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return all
}

// thresholdShot issues one typed threshold request and records the
// outcome. Server rejections surface as *blobclient.APIError — status
// plus the machine-readable code the SLOs audit; transport errors (the
// client gave up, not the server) drop the shot as before.
func thresholdShot(cl *blobclient.Client, dim int) (*shot, error) {
	began := time.Now()
	resp, err := cl.Threshold(context.Background(), thresholdReq(dim))
	s := &shot{latency: time.Since(began), dim: dim}
	if err != nil {
		var ae *blobclient.APIError
		if !errors.As(err, &ae) {
			return nil, err
		}
		s.status = ae.Status
		s.reason = ae.Code
		return s, nil
	}
	s.status = http.StatusOK
	s.cached = resp.Cached
	s.thresholds = canonicalThresholds(resp.Thresholds)
	s.filledFrom = resp.FilledFrom
	return s, nil
}

// dispatchCall is working-set shape i: an f64 GEMM {16+4i, 64, 64},
// called once, its operands copied once (dispatchReference prices the
// same shape in-process).
func dispatchCall(i int) service.DispatchCallRequest {
	var cr service.DispatchCallRequest
	cr.Kernel = "gemm"
	cr.M = 16 + 4*i
	cr.N, cr.K = 64, 64
	cr.Precision = "f64"
	cr.Count = 1
	cr.Movement = "once"
	return cr
}

// dispatchReq builds one batch over the bounded shape working set.
func dispatchReq(rng *rand.Rand) service.DispatchRequest {
	req := service.DispatchRequest{System: dispatchSystem}
	for i := 0; i < dispatchBatchSize; i++ {
		req.Calls = append(req.Calls, dispatchCall(rng.Intn(dispatchShapes)))
	}
	return req
}

// probeDispatch routes every working-set shape once, after the load
// and outside the shots the fast tier and hit-rate floor judge, fails
// the profile for each verdict that differs from ref, and records both
// digests.
func probeDispatch(res *ProfileResult, cl *blobclient.Client, ref map[int]string) {
	req := service.DispatchRequest{System: dispatchSystem}
	for i := 0; i < dispatchShapes; i++ {
		req.Calls = append(req.Calls, dispatchCall(i))
	}
	resp, err := cl.DispatchBatch(context.Background(), req)
	if err == nil && len(resp.Decisions) != len(req.Calls) {
		err = fmt.Errorf("%d decisions for %d calls", len(resp.Decisions), len(req.Calls))
	}
	if err != nil {
		res.fail("dispatch probe failed: " + err.Error())
		return
	}
	got := make(map[int]string, len(req.Calls))
	for i, dec := range resp.Decisions {
		got[req.Calls[i].M] = dec.Device
	}
	matchVerdicts(res, got, ref, "probe shape m=%d missing from the in-process reference",
		"m=%d: served dispatch verdict differs from the in-process reference")
}

// dispatchReference maps each working-set shape's m to the device a
// fresh in-process dispatcher gives it, deciding them in m order. A
// verdict depends only on its call, so the served dispatcher must agree
// after any load; a failed decision reads "unknown" and never does.
func dispatchReference() map[int]string {
	sys, _ := systems.ByName(dispatchSystem) // a preset: the probe names it too
	d := offload.New(offload.Options{System: sys})
	ref := make(map[int]string, dispatchShapes)
	for i := 0; i < dispatchShapes; i++ {
		m := 16 + 4*i
		dec, _ := d.Gemm(context.Background(), core.F64, m, 64, 64, 1, xfer.TransferOnce, false)
		ref[m] = dec.Device.String()
	}
	return ref
}

// dispatchShot issues one routing batch and records the outcome.
func dispatchShot(cl *blobclient.Client, rng *rand.Rand) (*shot, error) {
	began := time.Now()
	resp, err := cl.DispatchBatch(context.Background(), dispatchReq(rng))
	s := &shot{latency: time.Since(began)}
	if err != nil {
		var ae *blobclient.APIError
		if !errors.As(err, &ae) {
			return nil, err
		}
		s.status = ae.Status
		s.reason = ae.Code
		return s, nil
	}
	s.status = http.StatusOK
	s.decisions = len(resp.Decisions)
	s.hits = resp.CacheHits
	return s, nil
}

// canonicalThresholds renders a verdict map deterministically (maps
// marshal with sorted keys) so byte comparison means semantic
// comparison.
func canonicalThresholds(m map[string]service.ThresholdBody) string {
	out, err := json.Marshal(m)
	if err != nil {
		return fmt.Sprintf("%v", m)
	}
	return string(out)
}

// score aggregates the shots and applies the SLO ceilings.
func score(res *ProfileResult, shots []shot, hotWarmed bool) {
	var fast []time.Duration
	for _, s := range shots {
		res.count(&s)
		switch {
		case s.status == http.StatusOK:
			// Fast tiers: result-cache hits and dispatch batches (the
			// decision path is microseconds per call; a whole batch must
			// still clear the fast SLO).
			if s.cached || s.decisions > 0 {
				fast = append(fast, s.latency)
			}
		case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
			// An abandoned follower waited in the queue for its flight's
			// initiator; it is a queue wait, not an immediate answer, so it
			// stays out of the fast tier.
			if s.reason != "abandoned" {
				fast = append(fast, s.latency)
			}
		}
	}
	if res.Requests == 0 {
		res.fail("profile produced no requests")
		return
	}
	res.ShedRate = float64(res.Requests-res.OK) / float64(res.Requests)
	res.FastP99Ms = float64(p99(fast)) / float64(time.Millisecond)

	if !hotWarmed {
		res.fail("hot cache entry failed to warm")
	}
	// A run that completed nothing sheds everything; it is reported once,
	// as the collapse it is, not again as a shed rate over the ceiling.
	switch {
	case res.OK == 0:
		res.fail("no request completed: total collapse, not load shedding")
	case res.ShedRate > maxShedRate:
		res.fail(fmt.Sprintf("shed rate %.3f above ceiling %.2f", res.ShedRate, maxShedRate))
	}
	if d := time.Duration(res.FastP99Ms * float64(time.Millisecond)); d > fastP99SLO {
		res.fail(fmt.Sprintf("fast-tier p99 %.1fms above SLO %s", res.FastP99Ms, fastP99SLO))
	}
	for reason, n := range res.Sheds {
		if !knownReasons[reason] {
			res.fail(fmt.Sprintf("%d sheds with unknown reason %q", n, reason))
		}
	}
	res.checkLeak()
}

// scoreDispatch applies the dispatch profile's extra SLO: with a bounded
// shape working set, the dispatcher's memoization must answer at least
// dispatchHitFloor of all decisions once warm — a cold cache per request
// (or a broken shape key) shows up here as a hit rate near zero.
func scoreDispatch(res *ProfileResult, shots []shot) {
	for _, s := range shots {
		res.Decisions += s.decisions
		res.DispatchHits += s.hits
	}
	if res.Decisions == 0 {
		res.fail("dispatch profile completed no routing decisions")
		return
	}
	res.DispatchHitRate = float64(res.DispatchHits) / float64(res.Decisions)
	if res.DispatchHitRate < dispatchHitFloor {
		res.fail(fmt.Sprintf("dispatch cache hit rate %.3f below floor %.2f",
			res.DispatchHitRate, dispatchHitFloor))
	}
}

// newProfileResult opens a profile's record, taking the goroutine
// baseline before the profile starts anything.
func newProfileResult(name string, peak int) ProfileResult {
	return ProfileResult{
		Name:              name,
		PeakLoad:          peak,
		Sheds:             map[string]int{},
		Statuses:          map[string]int{},
		GoroutineBaseline: runtime.NumGoroutine(),
		Pass:              true,
	}
}

// count adds one shot to the artifact counters; every non-200 is a shed.
func (r *ProfileResult) count(s *shot) {
	r.Requests++
	r.Statuses[fmt.Sprint(s.status)]++
	if s.status != http.StatusOK {
		r.Sheds[s.reason]++
		return
	}
	r.OK++
	if s.cached {
		r.Cached++
	}
	if s.filledFrom != "" {
		r.PeerFills++
	}
}

func (r *ProfileResult) fail(msg string) {
	r.Pass = false
	r.Violations = append(r.Violations, msg)
}

// settleGoroutines waits up to 5s, once a profile has torn everything
// down, for the goroutine count to fall back within goroutineTolerance
// of baseline, and returns the last count.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+goroutineTolerance || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkLeak fails a profile whose goroutines did not settle back to
// baseline.
func (r *ProfileResult) checkLeak() {
	if r.GoroutineAfter > r.GoroutineBaseline+goroutineTolerance {
		r.fail(fmt.Sprintf("goroutine leak: %d after drain, baseline %d",
			r.GoroutineAfter, r.GoroutineBaseline))
	}
}

// p99 returns the 99th-percentile duration (0 for an empty set).
func p99(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*99 + 99) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// verifyVerdicts proves chaos serves no corrupted result: every verdict
// the chaos profile returned must be byte-identical to a fault-free
// reference sweep of the same dimension. Both digests land in the
// artifact so two runs are comparable at a glance.
func verifyVerdicts(res *ProfileResult, shots []shot, workers int) {
	verdicts := map[int]string{}
	for _, s := range shots {
		if s.status != http.StatusOK || s.thresholds == "" {
			continue
		}
		if prev, ok := verdicts[s.dim]; ok && prev != s.thresholds {
			res.fail(fmt.Sprintf("dim %d served two different verdicts under chaos", s.dim))
		}
		verdicts[s.dim] = s.thresholds
	}
	if len(verdicts) == 0 {
		res.fail("chaos profile completed no verdicts to verify")
		return
	}

	// The fault-free reference: a quiet server, sequential requests.
	transport := &http.Transport{}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	ref := replay(service.Options{Workers: workers, Sweep: costedSweep(0, nil)}, client, [][]int{sortedDims(verdicts)})
	transport.CloseIdleConnections()
	matchVerdicts(res, verdicts, ref.verdicts, "reference sweep for dim %d failed",
		"dim %d: chaos verdict differs from fault-free reference")
}

// matchVerdicts fails res, in dim order, for every dim of got that ref
// lacks or answers differently, and records both digests. missing and
// differs format the violations; each takes the dim.
func matchVerdicts(res *ProfileResult, got, ref map[int]string, missing, differs string) {
	for _, dim := range sortedDims(got) {
		if want, ok := ref[dim]; !ok {
			res.fail(fmt.Sprintf(missing, dim))
		} else if want != got[dim] {
			res.fail(fmt.Sprintf(differs, dim))
		}
	}
	res.VerdictDigest = digest(got)
	res.ReferenceDigest = digest(ref)
}

// sortedDims lists a verdict map's dims in order, so digests and
// violation lists come out the same on every run.
func sortedDims(m map[int]string) []int {
	dims := make([]int, 0, len(m))
	for d := range m {
		dims = append(dims, d)
	}
	sort.Ints(dims)
	return dims
}

// digest is a stable fingerprint of a dim -> verdict map.
func digest(m map[int]string) string {
	h := sha256.New()
	for _, d := range sortedDims(m) {
		fmt.Fprintf(h, "%d=%s\n", d, m[d])
	}
	return hex.EncodeToString(h.Sum(nil))
}
