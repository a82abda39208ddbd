// Package analysis aggregates the blob-vet analyzer suite: the custom
// static checks that machine-enforce the benchmark's numeric and
// concurrency invariants (see each analyzer's package doc for the paper
// rationale). cmd/blob-vet drives them from the command line and
// suite_test.go keeps the repository itself clean under `go test`.
package analysis

import (
	"repro/internal/analysis/blobvet"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/errcontract"
	"repro/internal/analysis/floatcompare"
	"repro/internal/analysis/goroutinehygiene"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/locksafety"
	"repro/internal/analysis/pkgdoc"
)

// All returns the full analyzer suite in stable order.
func All() []*blobvet.Analyzer {
	return []*blobvet.Analyzer{
		ctxflow.Analyzer,
		determinism.Analyzer,
		errcontract.Analyzer,
		floatcompare.Analyzer,
		goroutinehygiene.Analyzer,
		hotalloc.Analyzer,
		locksafety.Analyzer,
		pkgdoc.Analyzer,
	}
}
