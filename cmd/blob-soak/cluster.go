package main

// The cluster profile: chaos-prove the consistent-hash advisor cluster
// (internal/cluster, DESIGN.md §16). It stands up an N-replica
// in-process cluster behind a blob-gateway, drives a working set wider
// than any one replica's cache through repeated shuffled scans, kills a
// replica mid-run and rejoins it, and asserts the three cluster
// acceptance criteria:
//
//   - linear cache scaling: the cluster's cache-hit rate is at least
//     clusterHitScalingFloor times a single node's over the identical
//     request schedule (sharding means each replica caches only its arc,
//     so N caches compose instead of duplicating);
//   - zero divergence: every verdict served through the chaos run —
//     routed, rerouted, or peer-filled — is byte-identical to the
//     single-node reference (routing may move where a verdict is
//     computed, never what it says);
//   - bounded degradation: no request hangs past the deadline budget,
//     even while the ring is reconverging around a dead replica.
//
// The fixture, schedule, tally and scorer below are shared with the
// partition profile (partition.go), which runs the same cluster and
// schedule over faulted wires instead of a clean kill.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/netfault"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/pkg/blobclient"
)

const (
	clusterNodes = 3
	// clusterHitScalingFloor is the acceptance floor for cluster-vs-single
	// cache-hit scaling. Perfect sharding over 3 replicas approaches 3x;
	// the floor leaves room for the kill window, when the dead replica's
	// arc re-warms on its failover owner.
	clusterHitScalingFloor = 2.5
	// clusterLatencyBudget bounds every request in the chaos run: the
	// replica request timeout (2s) plus routing, failover and peer-fill
	// overhead. A request that exceeds it hung instead of degrading.
	clusterLatencyBudget = 5 * time.Second
)

var clusterWording = clusterWords{
	diverged:    "dim %d served two different verdicts across the chaos run",
	noReference: "single-node reference completed no requests",
	missing:     "dim %d missing from the single-node reference",
	differs:     "dim %d: cluster verdict differs from single-node reference",
}

// soakBreaker is every fixture pool's per-peer breaker: one failure in
// two opens it, and it half-opens again after OpenTimeout.
var soakBreaker = resilience.BreakerConfig{
	MinRequests: 1, FailureRatio: 0.5, OpenTimeout: 300 * time.Millisecond,
}

// soakNode is one in-process replica with a severable network edge: kill
// makes its HTTP surface abort every connection (the crash a gateway
// sees) while the service underneath keeps running, so a revive models a
// rejoin with a warm cache.
type soakNode struct {
	name   string
	node   *cluster.Node
	ts     *httptest.Server
	killed atomic.Bool
}

func (n *soakNode) kill()   { n.killed.Store(true) }
func (n *soakNode) revive() { n.killed.Store(false) }

// soakCluster is the in-process cluster both cluster profiles run:
// clusterNodes replicas behind one blob-gateway.
type soakCluster struct {
	nodes  []*soakNode
	gwPool *cluster.Pool
	gwTS   *httptest.Server
	peerc  *http.Client
	edges  []*http.Transport
}

// edge returns a client over a pooled transport of its own, which finish
// closes. A non-nil inj faults its exchanges, naming replicas by peerOf.
func (c *soakCluster) edge(inj *netfault.Injector) *http.Client {
	t := &http.Transport{MaxIdleConnsPerHost: 64}
	c.edges = append(c.edges, t)
	return &http.Client{
		Transport: &netfault.Transport{Inner: t, Injector: inj, Peer: c.peerOf},
		Timeout:   10 * time.Second,
	}
}

// start brings the cluster up: the replicas fill from each other over
// peerc, the gateway reaches them over gwc. A client built before start
// may already take c.peerOf. On error the caller still owes a close.
func (c *soakCluster) start(cacheSize int, peerc, gwc *http.Client, gwOpts cluster.GatewayOptions) (err error) {
	c.peerc = peerc
	// Replica HTTP servers come up first (their URLs seed the roster),
	// with handlers swapped in once the pools exist.
	handlers := make([]atomic.Value, clusterNodes)
	members := make([]cluster.Member, clusterNodes)
	for i := range handlers {
		n := &soakNode{name: fmt.Sprintf("rep-%d", i)}
		slot := &handlers[i]
		n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n.killed.Load() {
				panic(http.ErrAbortHandler) // sever the connection, not the process
			}
			slot.Load().(http.Handler).ServeHTTP(w, r)
		}))
		c.nodes = append(c.nodes, n)
		members[i] = cluster.Member{Name: n.name, URL: n.ts.URL}
	}
	for i, n := range c.nodes {
		pool, err := cluster.NewPool(cluster.Options{
			Self:         n.name,
			Members:      members,
			DownAfter:    2,
			ProbeTimeout: 2 * time.Second,
			FillTimeout:  5 * time.Second,
			HTTPClient:   peerc,
			Breaker:      soakBreaker,
		})
		if err != nil {
			return fmt.Errorf("cluster setup: %w", err)
		}
		n.node = cluster.NewNode(pool, service.New(service.Options{
			Workers:        2,
			CacheSize:      cacheSize,
			RequestTimeout: 2 * time.Second,
			PeerFill:       pool.FillThreshold(),
		}))
		handlers[i].Store(n.node.Handler())
	}
	if c.gwPool, err = cluster.NewGatewayPool(cluster.Options{
		Members:      members,
		DownAfter:    2,
		ProbeTimeout: 2 * time.Second,
		HTTPClient:   gwc,
		Breaker:      soakBreaker,
	}); err != nil {
		return fmt.Errorf("gateway setup: %w", err)
	}
	c.gwTS = httptest.NewServer(cluster.NewGateway(c.gwPool, gwOpts).Handler())
	return nil
}

// close tears down whatever start built, the gateway first.
func (c *soakCluster) close() {
	if c.gwTS != nil {
		c.gwTS.Close()
		c.gwPool.Close()
	}
	for _, n := range c.nodes {
		n.ts.Close()
		if n.node != nil {
			n.node.Close()
		}
	}
}

// peerOf names the replica behind a request so netfault rules can
// target members, not ephemeral 127.0.0.1 ports.
func (c *soakCluster) peerOf(r *http.Request) string {
	for _, n := range c.nodes {
		if n.ts.Listener.Addr().String() == r.URL.Host {
			return n.name
		}
	}
	return r.URL.Host
}

// converge is deterministic health convergence: DownAfter probe rounds
// on every pool, instead of waiting on a background heartbeat. Only the
// cluster profile calls it: the partition profile's gateway client
// counts probes as netfault exchanges, so probing would shift its index
// windows.
func (c *soakCluster) converge() {
	for r := 0; r < 2; r++ {
		for _, n := range c.nodes {
			checkNow(n.node.Pool())
		}
		checkNow(c.gwPool)
	}
}

func checkNow(p *cluster.Pool) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p.CheckNow(ctx)
}

// clusterSchedule is the request schedule both cluster profiles and
// their single-node reference replay: passes over a working set of dims
// 4x one replica's cache, so a single node thrashes (~25% hits) while
// each ring owner's arc (~1/3 of the set) nearly fits (~75% hits) — the
// gap the cluster profile's scaling floor measures.
type clusterSchedule struct {
	seed                    int64
	cacheSize, dims, passes int
}

func newClusterSchedule(seed int64, short bool) clusterSchedule {
	if short {
		return clusterSchedule{seed, 24, 96, 5}
	}
	return clusterSchedule{seed, 36, 144, 9}
}

// orders returns each pass's dims: pass 0 warms in order, later passes
// are seeded shuffles. Pass 0 still draws its shuffle, so a seed's
// passes stay those its past artifacts record.
func (s clusterSchedule) orders() [][]int {
	rng := rand.New(rand.NewSource(s.seed))
	orders := make([][]int, s.passes)
	for pass := range orders {
		orders[pass] = rng.Perm(s.dims)
		for i, idx := range orders[pass] {
			if pass == 0 {
				idx = i
			}
			orders[pass][i] = 24 + 2*idx
		}
	}
	return orders
}

// clusterRun tallies one run of the schedule: the artifact counters,
// the verdict served for each dim, the dims served two different
// verdicts, and the worst latency.
type clusterRun struct {
	ProfileResult
	verdicts   map[int]string
	diverged   []int
	maxLatency time.Duration
}

func newClusterRun(name string, peak int) *clusterRun {
	return &clusterRun{ProfileResult: newProfileResult(name, peak), verdicts: map[int]string{}}
}

func (r *clusterRun) add(s *shot) {
	r.count(s)
	r.maxLatency = max(r.maxLatency, s.latency)
	if s.status != http.StatusOK {
		return
	}
	if prev, ok := r.verdicts[s.dim]; ok && prev != s.thresholds {
		r.diverged = append(r.diverged, s.dim)
	}
	r.verdicts[s.dim] = s.thresholds
}

// drive runs the schedule against the cluster and tallies it into run.
// Most shots go through the gateway (owner-routed) over the peer
// client; every fifth goes straight to a replica on a client built from
// direct, which on a local miss exercises the peer-fill path to the
// shard owner. beforePass, when set, runs at the start of each pass.
func (c *soakCluster) drive(run *clusterRun, sched clusterSchedule, direct blobclient.Options, beforePass func(pass int)) {
	gw := blobclient.New(blobclient.Options{
		BaseURL: c.gwTS.URL, HTTPClient: c.peerc, Breaker: soakBreakerOff})
	directs := make([]*blobclient.Client, len(c.nodes))
	for i, n := range c.nodes {
		direct.BaseURL = n.ts.URL
		directs[i] = blobclient.New(direct)
	}
	began := time.Now()
	for pass, order := range sched.orders() {
		if beforePass != nil {
			beforePass(pass)
		}
		for j, dim := range order {
			cl := gw
			if j%5 == 4 {
				target := (pass + j) % len(c.nodes)
				if c.nodes[target].killed.Load() {
					continue // a client of a dead replica just fails; nothing to score
				}
				cl = directs[target]
			}
			s, err := thresholdShot(cl, dim)
			if err != nil {
				continue // transport error past the client's retries; later passes revisit the dim
			}
			run.add(s)
		}
	}
	run.DurationMs = float64(time.Since(began)) / float64(time.Millisecond)
	run.MaxLatencyMs = float64(run.maxLatency) / float64(time.Millisecond)
}

// finish tears the cluster down and replays the schedule (same seed,
// same passes, no kill, no faults) against one clean node with the same
// cache size, over the peer client: the byte-identical verdict oracle,
// and the cluster profile's hit-rate baseline. Then it drops the edges'
// idle connections and settles the goroutine count.
func (c *soakCluster) finish(run *clusterRun, sched clusterSchedule) *clusterRun {
	c.close()
	ref := replay(service.Options{
		Workers:        2,
		CacheSize:      sched.cacheSize,
		RequestTimeout: 2 * time.Second,
	}, c.peerc, sched.orders())
	for _, t := range c.edges {
		t.CloseIdleConnections()
	}
	run.GoroutineAfter = settleGoroutines(run.GoroutineBaseline)
	return ref
}

// replay sends the dims of each pass in turn to a fresh, quiet service
// built from opts and tallies every shot that completes: the fault-free
// reference the verdict checks compare against.
func replay(opts service.Options, httpc *http.Client, passes [][]int) *clusterRun {
	svc := service.New(opts)
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		svc.Close()
	}()
	cl := blobclient.New(blobclient.Options{
		BaseURL: ts.URL, HTTPClient: httpc, Breaker: soakBreakerOff})
	ref := newClusterRun("reference", 1)
	for _, dims := range passes {
		for _, dim := range dims {
			if s, err := thresholdShot(cl, dim); err == nil {
				ref.add(s)
			}
		}
	}
	return ref
}

// clusterWords is a profile's wording of scoreCluster's violations; each
// %d takes the dim.
type clusterWords struct {
	diverged, noReference, missing, differs string
}

// scoreCluster applies the checks both cluster profiles share and writes
// both digests. It reports whether the run and its reference completed
// enough to go on to the profile's own checks.
func scoreCluster(run, ref *clusterRun, budget time.Duration, words clusterWords) bool {
	for _, dim := range run.diverged {
		run.fail(fmt.Sprintf(words.diverged, dim))
	}
	if run.OK == 0 {
		run.fail(run.Name + " run completed no requests")
		return false
	}
	if ref.OK == 0 {
		run.fail(words.noReference)
		return false
	}
	matchVerdicts(&run.ProfileResult, run.verdicts, ref.verdicts, words.missing, words.differs)
	if run.maxLatency > budget {
		run.fail(fmt.Sprintf("request hung %.0fms, budget %s", run.MaxLatencyMs, budget))
	}
	run.checkLeak()
	return true
}

// runClusterProfile drives the chaos scenario and scores it.
func runClusterProfile(seed int64, short bool) ProfileResult {
	run := newClusterRun("cluster", clusterNodes)
	sched := newClusterSchedule(seed, short)
	killPass, revivePass := 2, sched.passes-2

	c := &soakCluster{}
	httpc := c.edge(nil)
	if err := c.start(sched.cacheSize, httpc, httpc, cluster.GatewayOptions{}); err != nil {
		c.close()
		run.fail(err.Error())
		return run.ProfileResult
	}
	c.drive(run, sched, blobclient.Options{HTTPClient: httpc, Breaker: soakBreakerOff}, func(pass int) {
		switch pass {
		case killPass:
			c.nodes[1].kill()
			c.converge()
		case revivePass:
			c.nodes[1].revive()
			c.converge()
			time.Sleep(soakBreaker.OpenTimeout + 50*time.Millisecond) // let open breakers re-probe
		}
	})
	ref := c.finish(run, sched)

	if !scoreCluster(run, ref, clusterLatencyBudget, clusterWording) {
		return run.ProfileResult
	}
	run.ClusterHitRate = float64(run.Cached) / float64(run.OK)
	run.SingleHitRate = float64(ref.Cached) / float64(ref.OK)
	if run.SingleHitRate > 0 {
		run.HitScaling = run.ClusterHitRate / run.SingleHitRate
	}
	if run.HitScaling < clusterHitScalingFloor {
		run.fail(fmt.Sprintf("cluster cache-hit scaling %.2fx below floor %.1fx (cluster %.3f, single %.3f)",
			run.HitScaling, clusterHitScalingFloor, run.ClusterHitRate, run.SingleHitRate))
	}
	if run.PeerFills == 0 {
		run.fail("peer-fill path never served a request")
	}
	return run.ProfileResult
}
