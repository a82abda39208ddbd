// Package benchmark measures this repository with the paper's own
// methodology and records the results as a machine-readable artifact.
//
// The paper's central methodological point (§III-C) is that CPU and GPU
// repetitions must be *interleaved*, not batched: running all repetitions
// of one configuration back to back lets clock ramps, cache warmth and
// background noise bias one side, while interleaving exposes every
// configuration to the same machine state drift. This package applies the
// same discipline to the repository itself: a Suite's cases are executed
// round-robin — repetition r of every case runs before repetition r+1 of
// any case — with warm-up repetitions discarded so only steady-state
// timings are recorded.
//
// Three groups of cases are standardized (see DefaultSuite):
//
//   - blas: the Opt* GEMM/GEMV kernels across the paper's problem shapes
//     and a size ladder, with GFLOP/s derived from the §III-A exact FLOP
//     model;
//   - sweep/advise: the modeled offload sweeps (core.RunProblem) and the
//     trace advisor (advisor.AdviseAll) — the hot paths behind
//     cmd/blob-advise and the threshold service;
//   - service: end-to-end HTTP request latency of blob-served's handlers
//     measured through net/http/httptest, reported with p50/p99.
//
// Results serialize as a schema-versioned BENCH_<tag>.json (see Artifact);
// Compare gates one artifact against another with a noise band, which is
// how scripts/verify.sh and reviewers detect performance regressions
// between PRs. cmd/blob-bench is the CLI driver.
package benchmark

import (
	"context"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"sort"
	"time"
)

// Case is one benchmarked operation. Prepare allocates operands and warm
// state once (excluded from timing); the returned op closure is the unit
// of repetition.
type Case struct {
	// Name identifies the case across artifacts; Compare matches cases by
	// name, so names must be stable and self-describing, e.g.
	// "blas/gemm/f64/square/256".
	Name string
	// Group is the suite section: "blas", "sweep", "advise" or "service".
	Group string
	// FlopsPerOp is the exact §III-A FLOP count of one op, or 0 when a
	// FLOP rate is meaningless (service round-trips, advisor lookups).
	FlopsPerOp int64
	// Prepare builds the op; its context is the run's context, so a
	// cancelled run aborts expensive preparation (and ops that capture it
	// observe the same cancellation). cleanup may be nil.
	Prepare func(ctx context.Context) (op func() error, cleanup func(), err error)
}

// Options configures a suite run.
type Options struct {
	// Repetitions is the number of recorded repetitions per case
	// (default 10).
	Repetitions int
	// Warmup is the number of leading repetitions discarded per case
	// (default 2). The paper discards the first iteration of every
	// configuration for the same reason (§III-C).
	Warmup int
	// Smoke selects the tiny size ladder used by `blob-bench -smoke` and
	// the verify.sh gate: one repetition of every case at sizes chosen so
	// the whole suite finishes in seconds.
	Smoke bool
	// Filter, when non-nil, restricts the suite to matching case names.
	Filter *regexp.Regexp
}

func (o Options) withDefaults() Options {
	if o.Repetitions < 1 {
		if o.Smoke {
			o.Repetitions = 1
		} else {
			o.Repetitions = 10
		}
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	} else if o.Warmup == 0 && !o.Smoke {
		o.Warmup = 2
	}
	return o
}

// rep is one recorded repetition of one case.
type rep struct {
	ns     float64
	allocs uint64
	bytes  uint64
}

// Run executes the cases with interleaved repetitions and returns one
// CaseResult per case, in case order. Progress lines go to w (nil
// discards them); ctx cancels between repetitions.
func Run(ctx context.Context, cases []Case, opt Options, w io.Writer) ([]CaseResult, error) {
	opt = opt.withDefaults()
	if w == nil {
		w = io.Discard
	}
	if opt.Filter != nil {
		var kept []Case
		for _, c := range cases {
			if opt.Filter.MatchString(c.Name) {
				kept = append(kept, c)
			}
		}
		cases = kept
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("benchmark: %w to run", ErrNoCases)
	}

	type prepared struct {
		c       Case
		op      func() error
		cleanup func()
		reps    []rep
	}
	prep := make([]*prepared, 0, len(cases))
	cleanupAll := func() {
		for _, p := range prep {
			if p.cleanup != nil {
				p.cleanup()
			}
		}
	}
	defer cleanupAll()
	for _, c := range cases {
		op, cleanup, err := c.Prepare(ctx)
		if err != nil {
			return nil, fmt.Errorf("benchmark: preparing %s: %w", c.Name, err)
		}
		prep = append(prep, &prepared{c: c, op: op, cleanup: cleanup})
	}

	total := opt.Warmup + opt.Repetitions
	fmt.Fprintf(w, "running %d cases x %d repetitions (%d warm-up), interleaved\n",
		len(prep), total, opt.Warmup)
	var ms0, ms1 runtime.MemStats
	for r := 0; r < total; r++ {
		for _, p := range prep {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("benchmark: cancelled at repetition %d: %w", r, err)
			}
			runtime.ReadMemStats(&ms0)
			began := time.Now()
			err := p.op()
			ns := float64(time.Since(began).Nanoseconds())
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, fmt.Errorf("benchmark: %s repetition %d: %w", p.c.Name, r, err)
			}
			if r >= opt.Warmup {
				p.reps = append(p.reps, rep{
					ns:     ns,
					allocs: ms1.Mallocs - ms0.Mallocs,
					bytes:  ms1.TotalAlloc - ms0.TotalAlloc,
				})
			}
		}
		fmt.Fprintf(w, "  repetition %d/%d done\n", r+1, total)
	}

	out := make([]CaseResult, 0, len(prep))
	for _, p := range prep {
		out = append(out, summarize(p.c, p.reps))
	}
	return out, nil
}

// summarize folds a case's recorded repetitions into a CaseResult.
func summarize(c Case, reps []rep) CaseResult {
	ns := make([]float64, len(reps))
	var allocs, bytes float64
	for i, r := range reps {
		ns[i] = r.ns
		allocs += float64(r.allocs)
		bytes += float64(r.bytes)
	}
	sort.Float64s(ns)
	res := CaseResult{
		Name:        c.Name,
		Group:       c.Group,
		Reps:        len(reps),
		MinNs:       ns[0],
		P50Ns:       percentile(ns, 0.50),
		P99Ns:       percentile(ns, 0.99),
		MaxNs:       ns[len(ns)-1],
		AllocsPerOp: allocs / float64(len(reps)),
		BytesPerOp:  bytes / float64(len(reps)),
		FlopsPerOp:  c.FlopsPerOp,
	}
	res.NsPerOp = res.P50Ns
	if c.FlopsPerOp > 0 && res.P50Ns > 0 {
		res.GFlops = float64(c.FlopsPerOp) / res.P50Ns
	}
	return res
}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
