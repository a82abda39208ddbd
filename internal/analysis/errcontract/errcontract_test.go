package errcontract_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/errcontract"
)

// TestSimPackage: under internal/sim the backend consult wrappers are
// where injected faults enter the system, so every chain-severing
// constructor there is a finding.
func TestSimPackage(t *testing.T) {
	analysistest.Run(t, errcontract.Analyzer,
		"../testdata/src/errcontract", "fixture/internal/sim/backend")
}

// TestInternalPackage: the same violations anywhere else under internal/
// are the same findings.
func TestInternalPackage(t *testing.T) {
	analysistest.Run(t, errcontract.Analyzer,
		"../testdata/src/errcontract", "fixture/internal/service")
}

// TestOutOfScope: outside internal/ the analyzer does not apply.
func TestOutOfScope(t *testing.T) {
	analysistest.RunNoDiagnostics(t, errcontract.Analyzer,
		"../testdata/src/errcontract", "fixture/pkg/outside")
}
