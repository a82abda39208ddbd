// Package hotalloc keeps functions marked //blobvet:hotpath free of
// per-call heap allocation. The offload advisor's consumers intercept
// every BLAS call ("Performant Automatic BLAS Offloading on Unified
// Memory Architecture", PAPERS.md), so the code on the decision path —
// the blas micro-kernels, the overload admission decision, the service
// cache lookup — is the product's overhead: an allocation per call there
// is a GC tax on every intercepted GEMM.
//
// A function opts in by carrying the marker in or directly above its doc
// comment:
//
//	//blobvet:hotpath
//	func microKernel8x4(...)
//
// Inside a marked function's body, certain allocations:
//
//   - &T{...}: an address-taken composite literal escapes to the heap;
//   - []T{...} and map[K]V{...} literals: slice and map literals allocate
//     their backing store;
//   - make(...) and new(...): explicit allocation;
//   - a function literal that captures an enclosing variable: a capturing
//     closure allocates its environment (a capture-free literal compiles
//     to a static function and is permitted).
//
// and likely ones:
//
//   - append whose destination is not an explicit reslice (s[:0], s[:n])
//     of an existing backing array: growth may reallocate; the fix is a
//     preallocated scratch buffer resliced per call;
//   - an explicit conversion to an interface type inside a loop body:
//     boxing allocates per iteration.
//
// The marker is load-bearing documentation too: it tells the next editor
// this function's allocation profile is part of its contract.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/blobvet"
)

// Marker is the doc-comment directive that opts a function into the
// allocation-free contract.
const Marker = "//blobvet:hotpath"

// Analyzer is the hotalloc instance registered with blob-vet.
var Analyzer = &blobvet.Analyzer{
	Name: "hotalloc",
	Doc: "//blobvet:hotpath functions must not heap-allocate: no &composite, " +
		"slice/map literals, make/new, capturing closures; append must reslice " +
		"a preallocated buffer",
	Run: run,
}

func run(pass *blobvet.Pass) error {
	for _, file := range pass.Files {
		marked := markedLines(pass, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !isHotpath(pass, fn, marked) {
				continue
			}
			checkHotpath(pass, fn)
		}
	}
	return nil
}

// markedLines records the line of every //blobvet:hotpath comment in the
// file, so a marker separated from the func by a blank-line-free gap
// still attaches even when the parser did not fold it into Doc.
func markedLines(pass *blobvet.Pass, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if c.Text == Marker {
				lines[pass.Fset.Position(c.Slash).Line] = true
			}
		}
	}
	return lines
}

func isHotpath(pass *blobvet.Pass, fn *ast.FuncDecl, marked map[int]bool) bool {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if c.Text == Marker {
				return true
			}
		}
	}
	return marked[pass.Fset.Position(fn.Pos()).Line-1]
}

func checkHotpath(pass *blobvet.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	var loops []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		}
		return true
	})
	inLoop := func(pos ast.Node) bool {
		for _, l := range loops {
			if l.Pos() <= pos.Pos() && pos.End() <= l.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(),
						"&composite literal in hotpath %s escapes to the heap; use a preallocated value", name)
					return false // don't double-report the inner literal
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pass.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					pass.Reportf(n.Pos(), "slice literal in hotpath %s allocates its backing array", name)
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal in hotpath %s allocates", name)
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				switch {
				case isBuiltin(pass, id, "make"):
					pass.Reportf(n.Pos(), "make in hotpath %s allocates per call; hoist to a preallocated field", name)
				case isBuiltin(pass, id, "new"):
					pass.Reportf(n.Pos(), "new in hotpath %s allocates per call; hoist to a preallocated field", name)
				case isBuiltin(pass, id, "append"):
					if len(n.Args) > 0 && !isReslice(n.Args[0]) {
						pass.Reportf(n.Pos(),
							"append in hotpath %s may grow its backing array; append into a preallocated buffer resliced to zero (buf[:0])", name)
					}
				}
			}
			// Explicit conversion to an interface type inside a loop:
			// per-iteration boxing.
			if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() && inLoop(n) {
				if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
					pass.Reportf(n.Pos(),
						"interface conversion in a loop of hotpath %s boxes per iteration; convert once outside the loop", name)
				}
			}
		case *ast.FuncLit:
			if captures(pass, fn, n) {
				pass.Reportf(n.Pos(),
					"closure in hotpath %s captures enclosing variables and allocates its environment; pass values as arguments or hoist the func", name)
			}
			return false // the literal's own body is not the hot path
		}
		return true
	})
}

// isBuiltin reports whether id resolves to the named Go builtin.
func isBuiltin(pass *blobvet.Pass, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	_, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok
}

// isReslice reports whether expr is a slice expression like s[:0] or
// s[a:b] — appending into an existing backing array rather than a fresh
// slice value.
func isReslice(expr ast.Expr) bool {
	_, ok := expr.(*ast.SliceExpr)
	return ok
}

// captures reports whether lit references any variable declared in fn but
// outside lit — the condition under which the closure needs a heap
// environment.
func captures(pass *blobvet.Pass, fn *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Parent() == nil {
			return true
		}
		pos := v.Pos()
		// Declared inside fn but outside the literal -> captured.
		if fn.Pos() <= pos && pos < fn.End() && !(lit.Pos() <= pos && pos < lit.End()) {
			captured = true
			return false
		}
		return true
	})
	return captured
}
