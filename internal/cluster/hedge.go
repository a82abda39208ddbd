package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/service"
)

// deadlineHeader is the end-to-end deadline budget header. The client
// states its total budget; every hop that spends time decrements it so
// the replica sees what is actually left, not what the client started
// with (see docs/API.md).
const deadlineHeader = "X-Deadline-Ms"

// latencyRing is a bounded window of recent successful proxy latencies,
// feeding the adaptive hedge delay. Fixed size, mutex-guarded: the
// gateway observes one sample per relayed response.
type latencyRing struct {
	mu  sync.Mutex
	buf [128]time.Duration
	n   int // filled entries, <= len(buf)
	idx int
}

func (l *latencyRing) observe(d time.Duration) {
	l.mu.Lock()
	l.buf[l.idx] = d
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// p99 returns the 99th percentile of the window, or ok=false while
// fewer than 16 samples exist — too cold to trust.
func (l *latencyRing) p99() (time.Duration, bool) {
	l.mu.Lock()
	n := l.n
	samples := make([]time.Duration, n)
	copy(samples, l.buf[:n])
	l.mu.Unlock()
	if n < 16 {
		return 0, false
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := n * 99 / 100
	if i >= n {
		i = n - 1
	}
	return samples[i], true
}

// hedgeDelay is how long the primary attempt may stay silent before a
// hedge fires: the fixed HedgeAfter if set, else the observed p99
// clamped to [HedgeMin, HedgeMax]. A cold window uses HedgeMax, so a
// freshly started gateway hedges only against genuinely stuck peers.
func (g *Gateway) hedgeDelay() time.Duration {
	if g.opts.HedgeAfter > 0 {
		return g.opts.HedgeAfter
	}
	p, ok := g.lat.p99()
	if !ok || p > g.opts.HedgeMax {
		return g.opts.HedgeMax
	}
	if p < g.opts.HedgeMin {
		return g.opts.HedgeMin
	}
	return p
}

// clientBudget parses the client's X-Deadline-Ms header. 0 means "no
// budget to manage": absent, malformed, or non-positive values are
// forwarded verbatim so the replica answers the canonical 400 — the
// gateway never silently repairs a bad request.
func clientBudget(r *http.Request) time.Duration {
	raw := r.Header.Get(deadlineHeader)
	if raw == "" {
		return 0
	}
	ms, err := strconv.Atoi(raw)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// hopHeaders builds the forwarded header set for one proxy attempt,
// decrementing the deadline budget by the time already spent in the
// gateway (queueing, earlier failed attempts, hedge waits). ok=false
// means the budget is exhausted: forwarding a request whose deadline
// cannot cover any work only burns a replica slot.
func (g *Gateway) hopHeaders(r *http.Request, budget time.Duration, arrived time.Time) (http.Header, bool) {
	hdr := forwardHeaders(r)
	if budget <= 0 {
		return hdr, true
	}
	remaining := budget - time.Since(arrived)
	if remaining < time.Millisecond {
		return nil, false
	}
	hdr.Set(deadlineHeader, strconv.FormatInt(remaining.Milliseconds(), 10))
	return hdr, true
}

// rejectDeadline answers 504 without forwarding: the client's budget
// was spent inside the gateway, so the replica's answer could never
// arrive in time anyway.
func (g *Gateway) rejectDeadline(w http.ResponseWriter, budget time.Duration) {
	g.metrics.deadlineGone.Inc()
	service.Reject(w, http.StatusGatewayTimeout, "deadline_exceeded", time.Second,
		fmt.Errorf("deadline budget of %s spent before the request could be forwarded", budget))
}

// hedgeAttempt is one in-flight proxy attempt in a hedged race.
type hedgeAttempt struct {
	name   string
	br     *resilience.Breaker
	cancel context.CancelFunc
	ch     <-chan PostResult
	rank   int
	hedge  bool
}

// routeHedged proxies body to the ring owners with hedging: the primary
// attempt races a timer derived from the p99 of recent proxy latencies;
// if the timer wins, one hedge copy goes to the next breaker-admitted
// owner and the first success is relayed while the loser is cancelled
// and synchronously drained. Breaker discipline matches the sequential
// path exactly — transport failures count, HTTP responses prove the
// peer alive, and a cancelled loser's outcome proves nothing.
func (g *Gateway) routeHedged(w http.ResponseWriter, r *http.Request, owners []string, body []byte, budget time.Duration, arrived time.Time) {
	var lastErr error
	next := 0 // next owner rank to consider

	// admit returns the next owner whose breaker accepts a request,
	// consuming skipped ranks the same way the sequential path does.
	admit := func() *hedgeAttempt {
		for next < len(owners) {
			name, rank := owners[next], next
			next++
			br := g.pool.Breaker(name)
			if br == nil {
				continue // self or vanished member
			}
			if err := br.Allow(); err != nil {
				g.metrics.breakerSkips.Inc()
				lastErr = fmt.Errorf("peer %s: %w", name, err)
				continue
			}
			return &hedgeAttempt{name: name, br: br, rank: rank}
		}
		return nil
	}
	// launch starts an attempt under its own cancellable context; false
	// means the deadline budget is already spent.
	launch := func(a *hedgeAttempt) bool {
		hdr, ok := g.hopHeaders(r, budget, arrived)
		if !ok {
			return false
		}
		ctx, cancel := context.WithCancel(r.Context())
		a.cancel = cancel
		a.ch = g.pool.PostAsync(ctx, a.name, r.URL.Path, body, hdr)
		return true
	}
	// abandon cancels a losing attempt and synchronously drains it so no
	// goroutine outlives the request. The loser was cancelled by us, not
	// refused by the peer, so its breaker sees a neutral outcome.
	abandon := func(a *hedgeAttempt) {
		a.cancel()
		res := <-a.ch
		a.br.Record(nil)
		if res.Resp != nil {
			res.Resp.Body.Close()
		}
	}

	for {
		primary := admit()
		if primary == nil {
			break
		}
		if !launch(primary) {
			g.rejectDeadline(w, budget)
			return
		}
		inflight := []*hedgeAttempt{primary}
		timer := time.NewTimer(g.hedgeDelay())
		for len(inflight) > 0 {
			var res PostResult
			var from *hedgeAttempt
			if len(inflight) == 1 {
				select {
				case res = <-inflight[0].ch:
					from = inflight[0]
				case <-timer.C:
					// Primary silent past the hedge delay: fire one hedge to
					// the next admitted owner (if any; otherwise keep
					// waiting — the drained timer never fires again).
					if h := admit(); h != nil && launch(h) {
						h.hedge = true
						g.metrics.hedges.Inc()
						inflight = append(inflight, h)
					}
					continue
				}
			} else {
				select {
				case res = <-inflight[0].ch:
					from = inflight[0]
				case res = <-inflight[1].ch:
					from = inflight[1]
				}
			}
			if res.Err != nil {
				if r.Context().Err() != nil {
					// The client hung up mid-proxy; that proves nothing about
					// any peer, and nobody is reading a reroute's answer.
					from.br.Record(nil)
					from.cancel()
					for _, a := range inflight {
						if a != from {
							abandon(a)
						}
					}
					timer.Stop()
					g.log.Info("gateway: request abandoned by client", "peer", from.name, "path", r.URL.Path)
					return
				}
				from.br.Record(res.Err)
				from.cancel()
				g.metrics.reroutes.Inc()
				lastErr = fmt.Errorf("peer %s: %w", from.name, res.Err)
				g.log.Warn("gateway: peer unreachable, rerouting", "peer", from.name, "path", r.URL.Path, "err", res.Err)
				kept := inflight[:0]
				for _, a := range inflight {
					if a != from {
						kept = append(kept, a)
					}
				}
				inflight = kept
				continue
			}
			// Any HTTP response proves the peer is alive.
			from.br.Record(nil)
			for _, a := range inflight {
				if a != from {
					abandon(a)
				}
			}
			timer.Stop()
			if from.hedge {
				g.metrics.hedgeWins.Inc()
				g.log.Info("gateway: hedge won", "peer", from.name, "rank", from.rank, "path", r.URL.Path)
			} else if from.rank > 0 {
				g.log.Info("gateway: served by failover owner", "peer", from.name, "rank", from.rank)
			}
			g.lat.observe(time.Since(arrived))
			g.relay(w, res.Resp, from.name)
			g.metrics.routed.With(from.name).Inc()
			// Cancel only after relay has drained the body: cancelling the
			// attempt context aborts an in-progress body read.
			from.cancel()
			return
		}
		timer.Stop()
		// Every in-flight attempt failed; start a fresh primary (with a
		// fresh hedge timer) on the next admitted owner.
	}
	g.metrics.noPeer.Inc()
	msg := "no healthy replica owns this shard"
	if lastErr != nil {
		msg = fmt.Sprintf("%s (last error: %v)", msg, lastErr)
	}
	service.Reject(w, http.StatusServiceUnavailable, "no_peer", time.Second, errors.New(msg))
}
