package overload

import (
	"slices"
	"sync"
	"time"
)

// costEstimator tracks the p50 cost of recently completed sweeps over a
// fixed ring of samples. The admission queue sheds a request early when
// its remaining deadline budget cannot cover this estimate: if the median
// sweep takes longer than the client is willing to wait, queueing the
// request only converts a cheap immediate shed into an expensive late
// timeout (the CoDel argument, applied to deadline budgets).
type costEstimator struct {
	mu      sync.Mutex
	samples []time.Duration // ring buffer
	scratch []time.Duration // p50's reusable sort buffer, guarded by mu
	next    int
	full    bool
}

// costWindow is the number of recent sweeps the p50 is taken over.
const costWindow = 32

func newCostEstimator() *costEstimator {
	return &costEstimator{
		samples: make([]time.Duration, costWindow),
		scratch: make([]time.Duration, 0, costWindow),
	}
}

// add records one completed sweep's duration.
//
//blobvet:hotpath
func (e *costEstimator) add(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.samples[e.next] = d
	e.next++
	if e.next == len(e.samples) {
		e.next = 0
		e.full = true
	}
}

// p50 returns the median of the recorded window, or 0 before any sample
// exists (no estimate — never shed on a guess). The sort runs in a
// preallocated scratch buffer: every queued request consults the
// estimate, so the admission path must not allocate per call.
//
//blobvet:hotpath
func (e *costEstimator) p50() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.next
	if e.full {
		n = len(e.samples)
	}
	if n == 0 {
		return 0
	}
	e.scratch = append(e.scratch[:0], e.samples[:n]...)
	slices.Sort(e.scratch)
	return e.scratch[n/2]
}
