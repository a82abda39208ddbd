// Command blob-vet runs the repository's custom static-analysis suite:
// the eight analyzers under internal/analysis that machine-check the
// benchmark's numeric, concurrency, documentation and contract
// invariants (no raw float equality, goroutine hygiene in the hot paths, bit-reproducible
// simulator output, GoDoc on every package, context plumbing, mutex
// discipline, allocation-free hot paths, and classifiable errors).
//
// Usage:
//
//	go run ./cmd/blob-vet ./...          # analyze the module, tests included
//	go run ./cmd/blob-vet -tests=false ./internal/blas
//	go run ./cmd/blob-vet -only floatcompare,determinism ./...
//	go run ./cmd/blob-vet -list
//
// Every finding fails the run, printed one per line as
// "file:line:col: [analyzer] message". A deliberate exception is
// suppressed only in source, by a //blobvet:allow or //blobvet:file-allow
// directive that names the analyzer and justifies itself; a directive
// without a justification is itself a finding.
//
// blob-vet complements — not replaces — the toolchain's `go vet`;
// scripts/verify.sh runs both, plus the race detector on the
// concurrency-bearing packages.
//
// Exit status: 0 clean, 1 findings reported, 2 operational error (an
// unknown -only name, patterns that match no package, a load failure, a
// type error).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/blobvet"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		tests = flag.Bool("tests", true, "include _test.go files and test packages")
		only  = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list  = flag.Bool("list", false, "print the analyzer suite and exit")
	)
	flag.Parse()

	suite := analysis.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		suite = selectAnalyzers(suite, *only)
		if len(suite) == 0 {
			fmt.Fprintf(os.Stderr, "blob-vet: no analyzer matches -only=%s\n", *only)
			return 2
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "blob-vet: %v\n", err)
		return 2
	}
	return vet(wd, *tests, suite, flag.Args(), os.Stdout, os.Stderr)
}

// vet analyzes the packages of the module at root that match patterns,
// prints findings to stdout and problems to stderr, and returns the exit
// status. A type error is an operational error like a load failure: the
// analyzers saw an incompletely checked package, so a run without
// findings is not clean.
func vet(root string, tests bool, suite []*blobvet.Analyzer, patterns []string, stdout, stderr io.Writer) int {
	typeErrs := 0
	findings, err := blobvet.Vet(root, tests, suite, func(pkg string, err error) {
		typeErrs++
		fmt.Fprintf(stderr, "blob-vet: %s: type error: %v\n", pkg, err)
	}, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "blob-vet: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	switch {
	case typeErrs > 0:
		fmt.Fprintf(stderr, "blob-vet: %d type error(s)\n", typeErrs)
		return 2
	case len(findings) > 0:
		fmt.Fprintf(stderr, "blob-vet: %d issue(s)\n", len(findings))
		return 1
	}
	return 0
}

func selectAnalyzers(suite []*blobvet.Analyzer, only string) []*blobvet.Analyzer {
	wanted := map[string]bool{}
	for _, n := range strings.Split(only, ",") {
		wanted[strings.TrimSpace(n)] = true
	}
	var out []*blobvet.Analyzer
	for _, a := range suite {
		if wanted[a.Name] {
			out = append(out, a)
		}
	}
	return out
}
