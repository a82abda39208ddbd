package blobvet

import (
	"errors"
	"fmt"
	"go/token"
	"path/filepath"
	"strings"

	"repro/internal/analysis/load"
)

// ErrNoPackages is the sentinel Vet wraps when its patterns match no
// package, so a typo'd pattern cannot read as a clean run.
var ErrNoPackages = errors.New("no packages match")

// A Finding is one diagnostic resolved for printing: File is relative to
// the module root and slash-separated.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Column   int
	Message  string
}

// String renders the finding as "file:line:col: [analyzer] message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Column, f.Analyzer, f.Message)
}

// Analyze runs CheckDirectives and then every analyzer of suite over one
// loaded package, and returns all their diagnostics.
func Analyze(pkg *load.Package, suite []*Analyzer) ([]Diagnostic, error) {
	diags := CheckDirectives(pkg.Fset, pkg.Files)
	for _, a := range suite {
		pass := NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
		}
		diags = append(diags, pass.Diagnostics()...)
	}
	return diags, nil
}

// Vet loads the packages of the module at root that match patterns
// ("./..." when none), with their tests when tests is set, and analyzes
// each with suite. Every finding it returns fails the run. A package with
// soft type errors is still analyzed; each error goes to typeErr.
func Vet(root string, tests bool, suite []*Analyzer, typeErr func(pkg string, err error), patterns ...string) ([]Finding, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Module(root, tests, patterns...)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("%w %s", ErrNoPackages, strings.Join(patterns, " "))
	}
	var findings []Finding
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			typeErr(pkg.ImportPath, terr)
		}
		diags, err := Analyze(pkg, suite)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			findings = append(findings, newFinding(pkg.Fset, root, d))
		}
	}
	return findings, nil
}

// newFinding resolves d against fset, with the filename made relative to
// root. A file outside root keeps its absolute path.
func newFinding(fset *token.FileSet, root string, d Diagnostic) Finding {
	pos := fset.Position(d.Pos)
	file := pos.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return Finding{
		Analyzer: d.Analyzer,
		File:     filepath.ToSlash(file),
		Line:     pos.Line,
		Column:   pos.Column,
		Message:  d.Message,
	}
}
