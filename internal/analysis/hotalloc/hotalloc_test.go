package hotalloc_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hotalloc"
)

// TestFixture covers the marker-scoped allocation rules: certain
// allocations (&composite, slice/map literals, make/new, capturing
// closures) and likely ones (growing append, interface boxing in a loop).
// Scope is the //blobvet:hotpath marker, not the import path, so the
// fixture also seeds an unmarked function that must stay silent.
func TestFixture(t *testing.T) {
	analysistest.Run(t, hotalloc.Analyzer,
		"../testdata/src/hotalloc", "fixture/internal/blas")
}
