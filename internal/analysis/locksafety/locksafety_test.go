package locksafety_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/locksafety"
)

// TestFixture covers the three rules in a lock-scope package: the leak,
// the double-lock (write and read side), every blocking-under-lock
// shape (chan ops, bare select, Wait, Sleep, caller-supplied func
// values), the one-level inlining, and the sanctioned shapes (select
// with default, notify-after-unlock, go statements, closure scoping).
func TestFixture(t *testing.T) {
	analysistest.Run(t, locksafety.Analyzer,
		"../testdata/src/locksafety", "fixture/internal/overload")
}

// TestOutOfScope: the same seeded fixture outside the concurrency-heavy
// packages produces nothing.
func TestOutOfScope(t *testing.T) {
	analysistest.RunNoDiagnostics(t, locksafety.Analyzer,
		"../testdata/src/locksafety", "fixture/internal/csvio")
}
