package kernelargcheck_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/kernelargcheck"
)

// TestFixture seeds unvalidated kernels and asserts the analyzer catches
// each one (and stays quiet on the compliant shapes).
func TestFixture(t *testing.T) {
	diags := analysistest.Run(t, kernelargcheck.Analyzer,
		"../testdata/src/kernelargcheck", "fixture/internal/blas")
	if len(diags) != 4 {
		t.Errorf("want 4 diagnostics from seeded violations, got %d", len(diags))
	}
}

// TestOutOfScope verifies the analyzer ignores packages outside
// internal/blas even when they contain the same shapes.
func TestOutOfScope(t *testing.T) {
	analysistest.RunNoDiagnostics(t, kernelargcheck.Analyzer,
		"../testdata/src/kernelargcheck", "fixture/somewhere/else")
}
