package floatcompare_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/floatcompare"
)

// TestFixture seeds FP-equality comparisons and asserts the analyzer
// flags exactly them: sentinels, the NaN probe, integer comparisons and
// directive-suppressed lines stay silent.
func TestFixture(t *testing.T) {
	diags := analysistest.Run(t, floatcompare.Analyzer,
		"../testdata/src/floatcompare", "fixture/floatcompare")
	if len(diags) != 5 {
		t.Errorf("want 5 diagnostics from seeded violations, got %d", len(diags))
	}
}
