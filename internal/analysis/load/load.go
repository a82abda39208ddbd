// Package load turns Go source on disk into type-checked packages for the
// blob-vet analyzers, using only the standard library plus the go tool that
// is necessarily present wherever this repository builds.
//
// Why not golang.org/x/tools/go/packages: the repository's contract is
// "stdlib-only, offline-friendly" (README), so blob-vet reimplements the
// small slice of that loader it needs. The strategy is the same one the
// real `go vet` driver uses:
//
//  1. `go list -export -json -deps` enumerates the packages matched by the
//     patterns plus every dependency, and — because of -export — makes the
//     go build cache hold fresh export data for each, reporting the file
//     path in the Export field.
//  2. Each module-local package is parsed from source and type-checked
//     with go/types; imports resolve through go/importer's gc importer
//     reading the export data from step 1 (per-package ImportMap applied
//     first, so test variants resolve correctly).
//
// With -tests, `go list -test` is used and the test-augmented variant
// "p [p.test]" (package files + in-package _test.go files) replaces the
// plain package, while external test packages "p_test" load as packages
// of their own. Generated test mains (ImportPath ending in ".test") are
// skipped, as is any package under a testdata/ tree — fixtures are
// deliberately violation-riddled and must never reach the analyzers
// through Module (the analysistest harness loads them explicitly via
// Dir). Generated *files* inside ordinary packages are handled one layer
// up: blobvet.NewPass drops diagnostics positioned in files carrying the
// standard "Code generated" marker.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// ImportPath is the package's canonical import path. Test-augmented
	// variants keep their " [p.test]" suffix trimmed off.
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects soft type-checking problems. Analysis proceeds
	// on a best-effort basis when non-empty.
	TypeErrors []error
}

type meta struct {
	ImportPath string
	Dir        string
	Export     string
	Name       string
	GoFiles    []string
	ImportMap  map[string]string
	ForTest    string
	Standard   bool
}

// Module loads, parses and type-checks every package of the module rooted
// at root that matches patterns (e.g. "./..."). When tests is true,
// in-package _test.go files are folded into their package and external
// _test packages are loaded too.
func Module(root string, tests bool, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, err := goList(root, tests, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(metas))
	for _, m := range metas {
		if m.Export != "" {
			exports[m.ImportPath] = m.Export
		}
	}

	// Pick the packages to analyze: module-local, not a generated test
	// main. go list -test can surface the same package several times —
	// plain "p", its own test-augmented variant "p [p.test]", and
	// recompiled-for-another-test variants "p [q.test]" — so packages are
	// deduplicated by canonical import path, preferring the own-test
	// variant (it carries the in-package _test.go files) over the plain
	// build over any foreign variant. Without this, a package imported by
	// another package's tests is analyzed (and its findings reported)
	// more than once.
	best := map[string]meta{}
	var order []string
	for _, m := range metas {
		if m.Standard || strings.HasSuffix(m.ImportPath, ".test") {
			continue
		}
		if !inDir(m.Dir, root) {
			continue
		}
		if underTestdata(m.Dir) {
			// testdata/ trees are analyzer fixtures (deliberately
			// violation-riddled), never production code: skip them here,
			// once, instead of in every analyzer. go list only surfaces
			// them when a pattern names one explicitly, but the guard
			// keeps that case from polluting a run too.
			continue
		}
		key := canonical(m.ImportPath)
		prev, seen := best[key]
		if !seen {
			best[key] = m
			order = append(order, key)
			continue
		}
		if variantRank(m) > variantRank(prev) {
			best[key] = m
		}
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	for _, key := range order {
		m := best[key]
		pkg, err := check(fset, m, exports)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", m.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// ErrNoGoFiles is the sentinel Dir wraps for a directory holding no Go
// files.
var ErrNoGoFiles = errors.New("no Go files")

// Dir loads a single directory of Go files as one package with the given
// import path, resolving its imports (standard library only) through the
// build cache. It exists for analysistest fixtures, which live under
// testdata/ and therefore are invisible to go list patterns; the asPath
// argument lets a fixture impersonate a scoped package such as
// "repro/internal/blas" so path-scoped analyzers fire on it.
func Dir(dir, asPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoGoFiles, dir)
	}
	sort.Strings(files)

	fset := token.NewFileSet()
	var parsed []*ast.File
	imports := map[string]bool{}
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
		for _, im := range f.Imports {
			imports[strings.Trim(im.Path.Value, `"`)] = true
		}
	}

	exports := map[string]string{}
	if len(imports) > 0 {
		var paths []string
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		metas, err := goList(dir, false, paths)
		if err != nil {
			return nil, fmt.Errorf("resolving fixture imports %v: %w", paths, err)
		}
		for _, m := range metas {
			if m.Export != "" {
				exports[m.ImportPath] = m.Export
			}
		}
	}
	return checkFiles(fset, asPath, dir, parsed, nil, exports)
}

// goList runs `go list -export -json -deps` (plus -test when asked) and
// decodes the JSON stream.
func goList(dir string, tests bool, patterns []string) ([]meta, error) {
	args := []string{"list", "-e", "-export",
		"-json=ImportPath,Dir,Export,Name,GoFiles,ImportMap,ForTest,Standard",
		"-deps"}
	if tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}
	var metas []meta
	dec := json.NewDecoder(&stdout)
	for {
		var m meta
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		metas = append(metas, m)
	}
	return metas, nil
}

func inDir(path, dir string) bool {
	rel, err := filepath.Rel(dir, path)
	return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
}

// underTestdata reports whether any element of path is "testdata", the go
// tool's conventional name for trees excluded from builds.
func underTestdata(path string) bool {
	for _, elem := range strings.Split(filepath.ToSlash(path), "/") {
		if elem == "testdata" {
			return true
		}
	}
	return false
}

// check parses m's files and type-checks them against the export data in
// exports.
func check(fset *token.FileSet, m meta, exports map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range m.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(m.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return checkFiles(fset, canonical(m.ImportPath), m.Dir, files, m.ImportMap, exports)
}

func checkFiles(fset *token.FileSet, importPath, dir string, files []*ast.File, importMap map[string]string, exports map[string]string) (*Package, error) {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	pkg := &Package{ImportPath: importPath, Dir: dir, Fset: fset, Files: files}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if tpkg == nil {
		return nil, err
	}
	pkg.Types, pkg.Info = tpkg, info
	return pkg, nil
}

// variantRank orders the builds of one package: the own-test-augmented
// variant "p [p.test]" (2) supersedes the plain build (1), which
// supersedes a foreign recompilation "p [q.test]" (0).
func variantRank(m meta) int {
	switch {
	case m.ForTest != "" && m.ImportPath == m.ForTest+" ["+m.ForTest+".test]":
		return 2
	case m.ForTest == "":
		return 1
	default:
		return 0
	}
}

// canonical strips go list's test-variant suffix: "p [p.test]" -> "p".
func canonical(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[:i]
	}
	return importPath
}
