// Package ctxflow machine-enforces the repository's context-plumbing
// contract: cancellation flows down the call tree through explicit
// context.Context parameters, never through ambient background contexts,
// and the long-running loops that dominate a sweep actually consult the
// context they were handed.
//
// The serving layer (ISSUE 2) promised "context-aware throughout": a
// cancelled advisor request must abort its sweep mid-flight, and the
// overload controller's deadline-aware shedding (ISSUE 5) only works if
// deadlines propagate. Three rules make the promise checkable:
//
//  1. An exported function or method that takes a context.Context must
//     receive it as the first parameter (after the receiver). This is the
//     stdlib convention; violating it invites call sites that thread the
//     wrong context.
//
//  2. Production code must not call context.Background() or
//     context.TODO() outside package main: a background context severs
//     the cancellation chain, so only the program entry point (and tests)
//     may mint one. Deliberate detachment points — a singleflight flight
//     that must outlive its first caller — carry an allow directive with
//     a justification.
//
//  3. In the sweep/serve packages (internal/core, internal/service), a
//     loop inside a context-taking function that makes calls but never
//     consults the context — no ctx.Err(), ctx.Done(), or any use of any
//     context value in its body — runs to completion even after
//     cancellation. The fix is a ctx.Err() check per iteration; a loop
//     too short to be worth cancelling carries a justified allow.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/blobvet"
)

// Analyzer is the ctxflow instance registered with blob-vet.
var Analyzer = &blobvet.Analyzer{
	Name: "ctxflow",
	Doc: "context.Context first in exported signatures, no Background()/TODO() " +
		"outside main, sweep/serve loops must consult their context",
	Run: run,
}

// loopScopePaths are the package-path suffixes rule 3 applies to: the
// packages whose loops iterate over problem sizes or queued requests and
// therefore must be cancellable mid-flight.
var loopScopePaths = []string{"internal/core", "internal/service"}

func run(pass *blobvet.Pass) error {
	checkLoops := inScope(pass.Pkg.Path(), loopScopePaths)
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCtxFirst(pass, fn)
			if fn.Body == nil {
				continue
			}
			if checkLoops && !pass.TestFile(fn.Pos()) {
				checkLoopConsultsCtx(pass, fn)
			}
		}
		if !isMain {
			checkNoBackground(pass, file)
		}
	}
	return nil
}

func inScope(path string, suffixes []string) bool {
	for _, suffix := range suffixes {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkCtxFirst enforces rule 1 on exported declarations (tests included:
// an exported test helper sets the same example).
func checkCtxFirst(pass *blobvet.Pass, fn *ast.FuncDecl) {
	if !fn.Name.IsExported() || fn.Type.Params == nil {
		return
	}
	idx := 0 // flattened parameter index
	for _, field := range fn.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		tv, ok := pass.Info.Types[field.Type]
		if ok && isContextType(tv.Type) && idx > 0 {
			pass.Reportf(field.Pos(),
				"exported %s takes context.Context as parameter %d; the context must be the first parameter",
				fn.Name.Name, idx+1)
			return
		}
		idx += n
	}
}

// checkNoBackground enforces rule 2 over a production file.
func checkNoBackground(pass *blobvet.Pass, file *ast.File) {
	if pass.TestFile(file.Pos()) {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
		if !ok || pkgName.Imported().Path() != "context" {
			return true
		}
		pass.Reportf(call.Pos(),
			"context.%s() severs the cancellation chain; accept a ctx parameter instead (allow-with-justification for deliberate detachment)",
			sel.Sel.Name)
		return true
	})
}

// checkLoopConsultsCtx enforces rule 3: outermost for/range loops in a
// context-taking function must reference some context value if they make
// calls.
func checkLoopConsultsCtx(pass *blobvet.Pass, fn *ast.FuncDecl) {
	// Does fn take a context parameter at all?
	hasCtx := false
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			if tv, ok := pass.Info.Types[field.Type]; ok && isContextType(tv.Type) {
				hasCtx = true
			}
		}
	}
	if !hasCtx {
		return
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch loop := m.(type) {
			case *ast.ForStmt:
				inspectLoop(pass, fn, loop, loop.Body)
				return false // outermost loop only; nested loops share its verdict
			case *ast.RangeStmt:
				inspectLoop(pass, fn, loop, loop.Body)
				return false
			case *ast.FuncLit:
				return false // closure bodies run elsewhere; judged where invoked
			}
			return true
		})
	}
	walk(fn.Body)
}

func inspectLoop(pass *blobvet.Pass, fn *ast.FuncDecl, loop ast.Node, body *ast.BlockStmt) {
	hasCall := false
	consultsCtx := false
	ast.Inspect(loop, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			hasCall = true
		case *ast.Ident:
			if obj := pass.Info.Uses[n]; obj != nil && isContextType(obj.Type()) {
				consultsCtx = true
			}
		}
		return true
	})
	if hasCall && !consultsCtx {
		pass.Reportf(loop.Pos(),
			"loop in %s never consults its context; add a ctx.Err() check so cancellation aborts the iteration",
			fn.Name.Name)
	}
}
