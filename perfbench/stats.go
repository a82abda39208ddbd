package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the samples at or below it.
// It never interpolates, so every reported percentile is a value that was
// really measured. xs is not modified; an empty xs gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile — the count that says whether a tail percentile rests on
// enough samples to repeat.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return max(0, n-max(1, rank))
}

// geomean is the geometric mean of positive rates. It gives each case equal
// weight whatever its magnitude, so a 2 GFLOP/s small-size case counts as
// much as a 20 GFLOP/s large one. A non-positive entry or an empty input
// gives 0: a rate that was not measured must not pass for a slow one.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// ratio is a share reported with its base, so 0.8 of 5 and 0.8 of 50000
// stay distinguishable.
type ratio struct {
	num, den float64
}

// value is num/den, 0 when the base is empty.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4f (%.6g of %.6g)", r.value(), r.num, r.den)
}

// latencyFromDue times an open-loop request from the moment it was due,
// not from when the generator got round to sending it: a stall that delays
// later sends shows up in their latency instead of vanishing from it. lag
// is how late the send was (never negative).
func latencyFromDue(due, sent, done time.Time) (latency, lag time.Duration) {
	lag = max(0, sent.Sub(due))
	return done.Sub(due), lag
}

// selfNs is a layer's own time: the total of its spans minus the time of
// the work they handed to the layer below. Without a request ID on the
// wire the benchmark cannot pair each span with its child, but every
// child lies inside the span that caused it, so the totals subtract
// exactly. A negative result means the child total was over-estimated
// and is reported as 0.
func selfNs(parentTotal, childTotal int64) int64 {
	return max(0, parentTotal-childTotal)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
