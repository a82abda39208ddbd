// Package blobvet is a minimal static-analysis framework in the spirit of
// golang.org/x/tools/go/analysis, rebuilt on the standard library only.
//
// The repository is deliberately dependency-free (README: "stdlib-only and
// runs anywhere Go runs"), so instead of importing x/tools this package
// defines the same three load-bearing concepts — Analyzer, Pass and
// Diagnostic — with exactly the surface the blob-vet checkers need. An
// Analyzer inspects one type-checked package and reports diagnostics; Vet
// (behind cmd/blob-vet and the repository's own clean-tree test) or the
// analysistest harness loads packages and runs analyzers over them.
//
// Every diagnostic fails the run: a finding is fixed in source or carries
// a justified allow directive.
//
// Suppression directives. A diagnostic can be silenced in source, so that
// deliberate, documented exceptions (for example an exact float comparison
// that is correct by construction) stay visible at the use site:
//
//	x := a == b //blobvet:allow floatcompare -- view aliases the same word
//
// The directive suppresses matching diagnostics on its own line (trailing
// form) and on the line directly below (standalone form). A
// file-scoped variant whitelists a whole file for one or more analyzers:
//
//	//blobvet:file-allow floatcompare -- golden values are exact by design
//
// Both forms name the analyzers they apply to (comma separated), or "all",
// followed by a mandatory free-form justification introduced by " -- " (or
// the equivalent "name: justification" colon form). A bare directive with
// no justification is rejected: it suppresses nothing, and CheckDirectives
// reports it as a finding of the "blobvet" pseudo-analyzer, so an
// undocumented exception cannot silently disable a check.
//
// Generated files. Diagnostics positioned in files carrying the standard
// "Code generated ... DO NOT EDIT." marker (per ast.IsGenerated) are
// dropped for every analyzer: generated code is the generator's problem,
// and each checker stays free of its own skipping logic. testdata/ trees
// are excluded one layer down, by the internal/analysis/load loader.
package blobvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. Run inspects the Pass's
// package and reports findings through pass.Reportf; a nil error with zero
// diagnostics means the package satisfies the invariant.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in suppression
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the enforced invariant,
	// shown by blob-vet -list.
	Doc string
	// Run performs the check on a single package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the parsed sources, including in-package _test.go files
	// when the driver loaded the test-augmented variant.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags      []Diagnostic
	suppressed int
	directives *directiveIndex
	generated  map[string]bool
}

// NewPass assembles a Pass over a loaded package for the given analyzer.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	return &Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
		directives: indexDirectives(a.Name, fset, files),
		generated:  generatedFiles(fset, files),
	}
}

// generatedFiles maps the filenames of files carrying the standard
// generated-code marker, so every analyzer skips them uniformly.
func generatedFiles(fset *token.FileSet, files []*ast.File) map[string]bool {
	gen := map[string]bool{}
	for _, f := range files {
		if ast.IsGenerated(f) {
			gen[fset.Position(f.Pos()).Filename] = true
		}
	}
	return gen
}

// Reportf records a diagnostic at pos unless a //blobvet:allow or
// //blobvet:file-allow directive covers it or the file is generated.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.generated[position.Filename] {
		p.suppressed++
		return
	}
	if p.directives.covers(position) {
		p.suppressed++
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings recorded so far, in source order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool {
		pi, pj := p.Fset.Position(p.diags[i].Pos), p.Fset.Position(p.diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return p.diags
}

// Suppressed returns how many reports were silenced by directives.
func (p *Pass) Suppressed() int { return p.suppressed }

// TestFile reports whether pos lies in a _test.go file. Several analyzers
// scope invariants to production code only (tests legitimately spawn bare
// goroutines, for example).
func (p *Pass) TestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// CheckDirectives validates every //blobvet: directive in files and
// returns diagnostics (Analyzer "blobvet") for malformed ones: a
// directive with no analyzer names, or an allow with no justification.
// Analyze runs it once per package, independent of which analyzers are
// selected, so a bare allow naming a disabled analyzer is still rejected.
func CheckDirectives(fset *token.FileSet, files []*ast.File) []Diagnostic {
	var diags []Diagnostic
	gen := generatedFiles(fset, files)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				if gen[fset.Position(c.Slash).Filename] {
					continue
				}
				switch {
				case len(d.names) == 0:
					diags = append(diags, Diagnostic{
						Pos: c.Slash, Analyzer: "blobvet",
						Message: fmt.Sprintf("//blobvet:%s names no analyzers; write //blobvet:%s <analyzer>: <justification>", d.kind, d.kind),
					})
				case d.justification == "":
					diags = append(diags, Diagnostic{
						Pos: c.Slash, Analyzer: "blobvet",
						Message: fmt.Sprintf("bare //blobvet:%s without justification; write //blobvet:%s %s: <justification>", d.kind, d.kind, strings.Join(d.names, ",")),
					})
				}
			}
		}
	}
	return diags
}

// directiveIndex records, per file, the lines whitelisted for one analyzer.
type directiveIndex struct {
	fileAllow map[string]bool         // filename -> whole file allowed
	lineAllow map[string]map[int]bool // filename -> line -> allowed
}

func indexDirectives(name string, fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{
		fileAllow: map[string]bool{},
		lineAllow: map[string]map[int]bool{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok || !nameListMatches(d.names, name) {
					continue
				}
				// A directive without a justification is malformed
				// (CheckDirectives reports it) and suppresses nothing.
				if d.justification == "" {
					continue
				}
				pos := fset.Position(c.Slash)
				switch d.kind {
				case "file-allow":
					idx.fileAllow[pos.Filename] = true
				case "allow":
					m := idx.lineAllow[pos.Filename]
					if m == nil {
						m = map[int]bool{}
						idx.lineAllow[pos.Filename] = m
					}
					// The directive covers its own line (trailing form)
					// and the next line (standalone form), mirroring
					// //nolint conventions.
					m[pos.Line] = true
					m[pos.Line+1] = true
				}
			}
		}
	}
	return idx
}

func (d *directiveIndex) covers(pos token.Position) bool {
	if d.fileAllow[pos.Filename] {
		return true
	}
	return d.lineAllow[pos.Filename][pos.Line]
}

// directive is one parsed //blobvet: comment.
type directive struct {
	kind          string // "allow" or "file-allow"
	names         []string
	justification string
}

// parseDirective splits "//blobvet:allow name1,name2 -- reason" (or the
// equivalent "//blobvet:allow name1,name2: reason" colon form) into its
// kind, analyzer names and justification.
func parseDirective(text string) (directive, bool) {
	const prefix = "//blobvet:"
	if !strings.HasPrefix(text, prefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(text, prefix)
	var d directive
	var body string
	switch {
	case strings.HasPrefix(rest, "file-allow"):
		d.kind, body = "file-allow", strings.TrimPrefix(rest, "file-allow")
	case strings.HasPrefix(rest, "allow"):
		d.kind, body = "allow", strings.TrimPrefix(rest, "allow")
	default:
		return directive{}, false
	}
	// " -- reason" and "names: reason" both introduce the justification;
	// whichever separator appears first wins.
	dash := strings.Index(body, " -- ")
	colon := strings.Index(body, ":")
	switch {
	case dash >= 0 && (colon < 0 || dash < colon):
		d.justification = strings.TrimSpace(body[dash+len(" -- "):])
		body = body[:dash]
	case colon >= 0:
		d.justification = strings.TrimSpace(body[colon+1:])
		body = body[:colon]
	}
	for _, fld := range strings.FieldsFunc(body, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		d.names = append(d.names, fld)
	}
	return d, true
}

func nameListMatches(names []string, analyzer string) bool {
	for _, n := range names {
		if n == analyzer || n == "all" {
			return true
		}
	}
	return false
}
