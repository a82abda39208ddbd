package main

// The partition profile: chaos-prove the cluster against the network
// itself (internal/netfault, DESIGN.md §17). The cluster profile kills
// a replica cleanly; this one degrades the wires instead — a seeded
// netfault plan blackholes the gateway's edge to one replica over two
// index windows (partition, heal, flap), keeps another replica slow
// enough that hedged requests fire, and randomly truncates or
// bit-flips response bodies on the direct-client edges so the
// blobclient integrity checks have real corruption to catch. The
// acceptance criteria:
//
//   - zero divergence: every verdict served through the faulted run is
//     byte-identical to the unfaulted single-node replay (faults may
//     move or delay a verdict, never change it — a corrupt body must
//     be retried, not believed);
//   - bounded degradation: no request outlives the latency budget even
//     mid-partition (blackholes burn their hold time, not a deadline);
//   - hedges help: the slow-peer rule must produce at least one hedge
//     win at the gateway;
//   - nothing leaks: goroutines return to baseline once the cluster
//     and both injectors wind down.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/netfault"
	"repro/internal/resilience"
	"repro/pkg/blobclient"
)

const (
	// partitionNodes is the partition profile's peak load; the shared
	// fixture runs clusterNodes replicas, which it must equal.
	partitionNodes = 3
	// partitionLatencyBudget bounds every request in the faulted run: the
	// replica request timeout (2s) plus routing, hedging, blackhole hold
	// and retry overhead. A request that exceeds it hung instead of
	// degrading.
	partitionLatencyBudget = 5 * time.Second
	// partitionHedgeAfter is the fixed hedge delay: above routine proxy
	// latency, far below the slow-peer rule's 60ms, so hedges fire
	// exactly when the fault plan says a peer is slow.
	partitionHedgeAfter = 25 * time.Millisecond
)

// partitionGatewayPlan is the seeded fault schedule for the gateway's
// peer edges. rep-1 is permanently slow (hedge bait); rep-2 is
// blackholed over two index windows — partition, heal, flap — with a
// hold short enough that a stuck attempt reroutes instead of hanging;
// rep-0 sees a few connection resets for failover seasoning.
func partitionGatewayPlan(seed int64, short bool) (*netfault.Plan, error) {
	p1, p2 := 140, 260 // first partition window (injector evaluation indices)
	f1, f2 := 420, 470 // flap window
	if short {
		p1, p2 = 70, 140
		f1, f2 = 220, 260
	}
	return netfault.ParsePlan([]byte(fmt.Sprintf(`{
  "schema": "netfault/v1",
  "seed": %d,
  "rules": [
    {"peer": "rep-1", "probability": 1, "kind": "latency", "latency_ms": 60, "jitter_ms": 15},
    {"peer": "rep-2", "min_index": %d, "max_index": %d, "probability": 1, "kind": "blackhole", "hold_ms": 250},
    {"peer": "rep-2", "min_index": %d, "max_index": %d, "probability": 1, "kind": "blackhole", "hold_ms": 250},
    {"peer": "rep-0", "probability": 0.05, "kind": "reset", "max_hits": 4}
  ]
}`, seed, p1, p2, f1, f2)))
}

// partitionClientPlan corrupts the direct-client edges: truncated and
// bit-flipped response bodies that pkg/blobclient must classify as
// transient and retry — a verdict read off a damaged wire must never
// be recorded.
func partitionClientPlan(seed int64) (*netfault.Plan, error) {
	return netfault.ParsePlan([]byte(fmt.Sprintf(`{
  "schema": "netfault/v1",
  "seed": %d,
  "rules": [
    {"route": "/v1/threshold", "probability": 0.2, "kind": "truncate", "truncate_after": 40, "max_hits": 25},
    {"route": "/v1/threshold", "probability": 0.15, "kind": "corrupt", "flip_every": 64, "max_hits": 25}
  ]
}`, seed+1)))
}

var partitionWording = clusterWords{
	diverged:    "dim %d served two different verdicts across the faulted run",
	noReference: "unfaulted reference completed no requests",
	missing:     "dim %d missing from the unfaulted reference",
	differs:     "dim %d: faulted verdict differs from the unfaulted replay",
}

// runPartitionProfile drives the network-fault scenario and scores it.
func runPartitionProfile(seed int64, short bool) ProfileResult {
	run := newClusterRun("partition", partitionNodes)
	sched := newClusterSchedule(seed, short)

	gwPlan, err := partitionGatewayPlan(seed, short)
	if err != nil {
		run.fail("gateway fault plan: " + err.Error())
		return run.ProfileResult
	}
	clPlan, err := partitionClientPlan(seed)
	if err != nil {
		run.fail("client fault plan: " + err.Error())
		return run.ProfileResult
	}
	gwInj := gwPlan.Arm()
	clInj := clPlan.Arm()

	// Three clients, three trust levels: replicas talk to each other on a
	// clean transport (the faults under test are on the client-facing
	// edges), the gateway reaches replicas through gwInj, and the direct
	// clients read replies through clInj's body-corrupting wrapper.
	c := &soakCluster{}
	cleanc, gwc, faultyc := c.edge(nil), c.edge(gwInj), c.edge(clInj)
	err = c.start(sched.cacheSize, cleanc, gwc, cluster.GatewayOptions{
		Hedge:      true,
		HedgeAfter: partitionHedgeAfter,
	})
	if err != nil {
		c.close()
		run.fail(err.Error())
		return run.ProfileResult
	}

	// The faulted run: the cluster profile's schedule with no kill, its
	// direct shots read through the body-corrupting transport. The
	// partitions arrive purely from the gateway plan's index windows as
	// its injector counts evaluations.
	c.drive(run, sched, blobclient.Options{
		HTTPClient: faultyc,
		Breaker:    soakBreakerOff,
		Retry:      resilience.RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond},
	}, nil)
	run.HedgeWins = scrapeCounter(c.gwTS.URL+"/metrics", "blob_gateway_hedge_wins_total")
	gwStats, clStats := gwInj.Stats(), clInj.Stats()
	run.FaultsInjected = int(gwStats.Total() + clStats.Total())
	ref := c.finish(run, sched)

	if !scoreCluster(run, ref, partitionLatencyBudget, partitionWording) {
		return run.ProfileResult
	}
	if run.HedgeWins < 1 {
		run.fail("slow-peer rule produced no hedge wins at the gateway")
	}
	if gwStats.Fired[netfault.Blackhole] == 0 {
		run.fail("partition windows never fired (plan indices missed the run)")
	}
	if clStats.Fired[netfault.Truncate]+clStats.Fired[netfault.Corrupt] == 0 {
		run.fail("body-corruption rules never fired on the direct edges")
	}
	if run.VerdictDigest != run.ReferenceDigest {
		// scoreCluster names each divergent dim; the digest check
		// additionally catches dims the faulted run never served.
		for _, dim := range sortedDims(ref.verdicts) {
			if _, ok := run.verdicts[dim]; !ok {
				run.fail(fmt.Sprintf("dim %d never served through the faulted run", dim))
			}
		}
	}
	return run.ProfileResult
}

// scrapeCounter reads one untyped counter value off a Prometheus text
// endpoint; 0 when the metric is absent or the scrape fails.
func scrapeCounter(metricsURL, name string) int {
	resp, err := http.Get(metricsURL)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.Atoi(strings.TrimSpace(rest))
			if err == nil {
				return v
			}
		}
	}
	return 0
}
