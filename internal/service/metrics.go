package service

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the service's stdlib-only observability layer: counters,
// gauges and histograms registered once in a Registry that renders the
// Prometheus text exposition format without a client library (the
// repository is deliberately dependency-free).

// Counter is a monotonically increasing count.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d (d must be >= 0).
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ n atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.n.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.n.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// defLatencyBounds are the histogram bucket upper bounds in seconds,
// spanning sub-millisecond advise calls to multi-second threshold sweeps.
var defLatencyBounds = [...]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// Histogram is a fixed-bucket latency histogram over defLatencyBounds.
type Histogram struct {
	mu     sync.Mutex
	counts [len(defLatencyBounds) + 1]int64 // one per bound, then +Inf
	sum    float64
	total  int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[sort.SearchFloat64s(defLatencyBounds[:], v)]++
	h.sum += v
	h.total++
}

func (h *Histogram) write(b *strings.Builder, name, labels string) {
	h.mu.Lock()
	counts, sum, total := h.counts, h.sum, h.total
	h.mu.Unlock()
	le := strings.TrimPrefix(labels+",", ",") // labels, then le=
	var cum int64
	for i, c := range counts {
		cum += c
		bound := "+Inf"
		if i < len(defLatencyBounds) {
			bound = formatValue(defLatencyBounds[i])
		}
		writeSample(b, name+"_bucket", le+`le="`+bound+`"`, float64(cum))
	}
	writeSample(b, name+"_sum", labels, sum)
	writeSample(b, name+"_count", labels, float64(total))
}

// Registry is a register-once set of metric families, each with its
// name, HELP text, type and label names. WriteTo renders every family
// in name order, each family's children in sorted label-value order.
// It is an http.Handler serving that rendering. The zero value is empty
// and ready to use.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// family is one registered metric family. Its children are created on
// first use or, for a gauge read from a func, listed by read at scrape
// time.
type family struct {
	name, help, kind string
	labels           []string
	read             func(emit func(v float64, values ...string))
	// limit bounds a one-label family's children; past it, new label
	// values aggregate under "_other". 0 means unbounded.
	limit int

	mu       sync.Mutex
	children map[string]child // label values joined by 0xff -> child
}

// child is one labelled series: a *Counter, *Gauge or *Histogram, or
// the float64 a gauge func emitted at scrape time.
type child struct {
	values []string
	m      any
}

// Vec is a labelled family's handle.
type Vec[T any] struct{ f *family }

// With returns the child for one set of label values (in declaration
// order), creating it on first use.
func (v Vec[T]) With(values ...string) *T { return v.f.with(values).(*T) }

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter { return r.CounterVec(name, help).With() }

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) Vec[Counter] {
	return Vec[Counter]{r.add(&family{name: name, help: help, kind: "counter", labels: labels})}
}

// Gauge registers an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return Vec[Gauge]{r.add(&family{name: name, help: help, kind: "gauge"})}.With()
}

// GaugeFunc registers a gauge read at scrape time: read calls emit once
// per child, with that child's value and label values.
func (r *Registry) GaugeFunc(name, help string, read func(emit func(v float64, values ...string)), labels ...string) {
	r.add(&family{name: name, help: help, kind: "gauge", labels: labels, read: read})
}

// HistogramVec registers a latency histogram family with the given
// label names.
func (r *Registry) HistogramVec(name, help string, labels ...string) Vec[Histogram] {
	return Vec[Histogram]{r.add(&family{name: name, help: help, kind: "histogram", labels: labels})}
}

func (r *Registry) add(f *family) *family {
	f.children = map[string]child{}
	r.mu.Lock()
	defer r.mu.Unlock()
	if slices.ContainsFunc(r.families, func(g *family) bool { return g.name == f.name }) {
		panic("service: metric family registered twice: " + f.name)
	}
	r.families = append(r.families, f)
	return f
}

// with is the one get-or-create for labelled children. The lookup key
// is built on the stack, so a hit takes one lock and no allocation.
func (f *family) with(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("service: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var buf [128]byte
	key := joinKey(buf[:0], values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[string(key)]
	if !ok && f.limit > 0 && len(f.children) >= f.limit {
		key = []byte("_other")
		c, ok = f.children["_other"]
	}
	if !ok {
		c = child{values: strings.Split(string(key), "\xff"), m: &Histogram{}}
		switch f.kind {
		case "counter":
			c.m = &Counter{}
		case "gauge":
			c.m = &Gauge{}
		}
		f.children[string(key)] = c
	}
	return c.m
}

// joinKey appends values, each made valid UTF-8 (so two invalid
// spellings cannot render as one duplicated series), separated by 0xff,
// a byte valid UTF-8 never holds.
func joinKey(dst []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			dst = append(dst, 0xff)
		}
		dst = append(dst, strings.ToValidUTF8(v, "\uFFFD")...)
	}
	return dst
}

// snapshot returns the family's children sorted by label values.
func (f *family) snapshot() []child {
	var cs []child
	if f.read != nil {
		f.read(func(v float64, values ...string) {
			cs = append(cs, child{values: slices.Clone(values), m: v})
		})
	} else {
		f.mu.Lock()
		for _, c := range f.children {
			cs = append(cs, c)
		}
		f.mu.Unlock()
	}
	slices.SortFunc(cs, func(a, b child) int { return slices.Compare(a.values, b.values) })
	return cs
}

// WriteTo renders the registry in the Prometheus text exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	families := slices.Clone(r.families)
	r.mu.Unlock()
	slices.SortFunc(families, func(a, b *family) int { return strings.Compare(a.name, b.name) })
	var b strings.Builder
	for _, f := range families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, c := range f.snapshot() {
			pairs := make([]string, len(f.labels))
			for i, name := range f.labels {
				pairs[i] = name + `="` + labelEscaper.Replace(strings.ToValidUTF8(c.values[i], "\uFFFD")) + `"`
			}
			labels := strings.Join(pairs, ",")
			switch m := c.m.(type) {
			case interface{ Value() int64 }: // *Counter, *Gauge
				writeSample(&b, f.name, labels, float64(m.Value()))
			case float64:
				writeSample(&b, f.name, labels, m)
			case *Histogram:
				m.write(&b, f.name, labels)
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// ServeHTTP answers a scrape.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = r.WriteTo(w)
}

// labelEscaper applies exactly the exposition format's three label
// escapes: backslash, double quote and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteString("{" + labels + "}")
	}
	b.WriteString(" " + formatValue(v) + "\n")
}

// formatValue prints integral values as integers and others in the
// shortest %g form.
func formatValue(v float64) string {
	if _, frac := math.Modf(v); frac == 0 && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Metrics holds every series a replica exports, registered in its own
// Registry (embedded, so Metrics renders and serves the scrape).
type Metrics struct {
	*Registry

	requests    Vec[Counter]   // endpoint, code
	latency     Vec[Histogram] // endpoint
	sheds       Vec[Counter]   // shed reason
	clientSheds Vec[Counter]   // client (bounded; overflow -> "_other")

	// CacheHits / CacheMisses count /v1/threshold cache lookups.
	CacheHits, CacheMisses *Counter
	// SweepsStarted / SweepsCompleted / SweepsCancelled count threshold
	// sweeps actually executed by the worker pool (deduplicated requests
	// never increment these — that is what the singleflight test asserts).
	SweepsStarted, SweepsCompleted, SweepsCancelled *Counter
	// InFlight is the number of requests currently being served.
	InFlight *Gauge
	// QueueDepth reads the worker pool's backlog at scrape time.
	QueueDepth func() int

	// PanicsTotal counts panics recovered by the containment layer (the
	// HTTP middleware and the sweep flight wrapper) instead of crashing
	// the process.
	PanicsTotal *Counter
	// StaleServes counts threshold responses served from an expired or
	// breaker-shielded cache entry, marked "stale": true on the wire.
	StaleServes *Counter
	// TimeoutsTotal counts requests that exhausted their deadline budget
	// and were answered 504.
	TimeoutsTotal *Counter
	// BreakerOpenTotal counts requests refused (or degraded to a stale
	// serve) because a backend's circuit breaker was open.
	BreakerOpenTotal *Counter
	// BreakerTransitions counts circuit-breaker state changes across all
	// per-system breakers.
	BreakerTransitions *Counter

	// AdmittedTotal counts sweeps admitted by the overload controller
	// (queued-then-granted included; sheds excluded).
	AdmittedTotal *Counter
	// AdmissionSeconds is the admission decision latency: how long a
	// request waited for the controller to either grant it a slot or shed
	// it — the p99 of this histogram is the soak harness's SLO.
	AdmissionSeconds *Histogram
	// AdmissionLimit and AdmissionQueued read the overload controller's
	// current AIMD limit and queue depth at scrape time.
	AdmissionLimit, AdmissionQueued func() int

	// PeerFillServes counts threshold responses served by fetching the
	// result from the shard's ring owner over the peer-fill path;
	// PeerFillFallbacks counts fill attempts that failed and fell back to
	// a local sweep. Requests the hook declined (this replica owns the
	// shard) count in neither.
	PeerFillServes, PeerFillFallbacks *Counter
	// drainSeconds is the blob_drain_seconds gauge: wall-clock of the
	// last completed graceful drain (BeginDrain → Close), stored as
	// float64 bits so the scrape path stays lock-free.
	drainSeconds atomic.Uint64

	// DispatchBatches / DispatchDecisions count /v1/dispatch batches
	// served and the individual routing decisions inside them;
	// DispatchCacheHits counts the decisions answered from the
	// dispatchers' seen-shape caches, and DispatchAbandoned the batches
	// whose client hung up mid-batch (answered 499).
	DispatchBatches, DispatchDecisions, DispatchCacheHits, DispatchAbandoned *Counter
}

// maxShedClients bounds the per-client shed series so a client-key
// minting attack cannot grow the scrape without bound; overflow clients
// aggregate under "_other".
const maxShedClients = 256

// NewMetrics returns a replica's metrics, every family registered.
func NewMetrics() *Metrics {
	r := &Registry{}
	m := &Metrics{Registry: r}
	m.requests = r.CounterVec("blob_requests_total", "Requests served, by endpoint and status code.", "endpoint", "code")
	m.latency = r.HistogramVec("blob_request_seconds", "Request latency, by endpoint.", "endpoint")
	m.CacheHits = r.Counter("blob_cache_hits_total", "Threshold cache hits.")
	m.CacheMisses = r.Counter("blob_cache_misses_total", "Threshold cache misses.")
	sweeps := r.CounterVec("blob_sweeps_total", "Threshold sweeps executed by the worker pool.", "result")
	m.SweepsStarted, m.SweepsCompleted, m.SweepsCancelled = sweeps.With("started"), sweeps.With("completed"), sweeps.With("cancelled")
	m.InFlight = r.Gauge("blob_inflight_requests", "Requests currently being served.")
	m.PanicsTotal = r.Counter("blob_panics_total", "Panics recovered instead of crashing the process.")
	m.StaleServes = r.Counter("blob_stale_serves_total", "Threshold responses served stale from the cache.")
	m.TimeoutsTotal = r.Counter("blob_timeouts_total", "Requests that exhausted their deadline budget.")
	m.BreakerOpenTotal = r.Counter("blob_breaker_open_total", "Requests refused or degraded by an open circuit breaker.")
	m.BreakerTransitions = r.Counter("blob_breaker_transitions_total", "Circuit breaker state changes across all backends.")
	fills := r.CounterVec("blob_peer_fill_total", "Threshold cache misses resolved via the cluster peer-fill path, by result.", "result")
	m.PeerFillServes, m.PeerFillFallbacks = fills.With("served"), fills.With("fallback")
	r.GaugeFunc("blob_drain_seconds", "Wall-clock of the last completed graceful drain (ring-leave to flush).",
		func(emit func(float64, ...string)) { emit(m.DrainSeconds()) })
	m.DispatchBatches = r.Counter("blob_dispatch_batches_total", "Dispatch batches served.")
	decisions := r.CounterVec("blob_dispatch_decisions_total", "Per-call routing decisions served, by source.", "source")
	m.DispatchDecisions, m.DispatchCacheHits = decisions.With("all"), decisions.With("cache")
	m.DispatchAbandoned = r.Counter("blob_dispatch_abandoned_total", "Dispatch batches abandoned mid-batch by the client.")
	r.GaugeFunc("blob_sweep_queue_depth", "Sweep jobs waiting for a worker.", readInt(&m.QueueDepth))
	m.AdmittedTotal = r.Counter("blob_admitted_total", "Sweeps admitted by the overload controller.")
	m.sheds = r.CounterVec("blob_shed_total", "Requests shed by admission control, by reason.", "reason")
	m.clientSheds = r.CounterVec("blob_client_shed_total", "Requests shed by admission control, by client.", "client")
	m.clientSheds.f.limit = maxShedClients
	m.AdmissionSeconds = r.HistogramVec("blob_admission_seconds", "Admission decision latency (grant or shed).").With()
	r.GaugeFunc("blob_admission_limit", "Current AIMD concurrency limit.", readInt(&m.AdmissionLimit))
	r.GaugeFunc("blob_admission_queue_depth", "Requests queued for admission.", readInt(&m.AdmissionQueued))
	return m
}

// readInt adapts one of Metrics' scrape-time func fields to GaugeFunc;
// a nil func renders no sample.
func readInt(f *func() int) func(emit func(float64, ...string)) {
	return func(emit func(float64, ...string)) {
		if *f != nil {
			emit(float64((*f)()))
		}
	}
}

// SetDrainSeconds records the duration of a completed graceful drain;
// DrainSeconds reads it back (0 until a drain has finished).
func (m *Metrics) SetDrainSeconds(s float64) { m.drainSeconds.Store(math.Float64bits(s)) }

// DrainSeconds returns the wall-clock of the last completed drain.
func (m *Metrics) DrainSeconds() float64 { return math.Float64frombits(m.drainSeconds.Load()) }
