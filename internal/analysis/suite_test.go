package analysis_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/blobvet"
)

// TestRepositoryIsClean runs the full blob-vet suite over every package
// of this module, tests included, and fails on any finding: an analyzer
// diagnostic or a malformed //blobvet: directive. This is the same gate
// scripts/verify.sh applies via cmd/blob-vet, folded into `go test ./...`
// so the invariants cannot rot unnoticed.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate module root")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	findings, err := blobvet.Vet(root, true, analysis.All(), func(pkg string, err error) {
		t.Errorf("%s: type error: %v", pkg, err)
	}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}
