package ctxflow_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/ctxflow"
)

// TestFixture covers all three rules in a loop-scope package: ctx not
// first in an exported signature, Background()/TODO() outside main, and
// a deaf loop — plus the justified-allow escape hatch.
func TestFixture(t *testing.T) {
	analysistest.Run(t, ctxflow.Analyzer,
		"../testdata/src/ctxflow", "fixture/internal/core")
}

// TestLoopScopeOnly isolates rule 3's package scoping with a fixture
// containing nothing but a deaf loop: it fires in internal/core and is
// silent outside the sweep/serve packages (rules 1 and 2 apply
// everywhere, which is why the main fixture cannot be reused here).
func TestLoopScopeOnly(t *testing.T) {
	analysistest.Run(t, ctxflow.Analyzer,
		"../testdata/src/ctxflow_scope", "fixture/internal/core")
}

// TestLoopScopeExempt: the same deaf loop outside the loop-scope
// packages produces nothing.
func TestLoopScopeExempt(t *testing.T) {
	analysistest.RunNoDiagnostics(t, ctxflow.Analyzer,
		"../testdata/src/ctxflow_scope", "fixture/internal/csvio")
}

// TestMainExempt: package main is the sanctioned place to mint a root
// context, so rule 2 stays silent there.
func TestMainExempt(t *testing.T) {
	analysistest.RunNoDiagnostics(t, ctxflow.Analyzer,
		"../testdata/src/ctxflow_main", "fixture/cmd/app")
}
