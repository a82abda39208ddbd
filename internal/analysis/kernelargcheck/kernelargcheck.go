// Package kernelargcheck enforces the BLAS argument-validation invariant:
// every exported GEMM/GEMV kernel entry point in internal/blas must invoke
// its check* validator (checkGemm, checkGemv, ...) before it indexes or
// slices any operand.
//
// Why this matters for the benchmark: the paper's offload-threshold tables
// are produced by sweeping every problem size in [s, d] through the same
// kernel entry points the checksum validator uses. A kernel that indexes
// a[i+j*lda] before validating lda/m/n/k turns a mis-sized argument into
// either an out-of-range panic deep inside a micro-kernel (useless
// diagnostics) or — far worse — a silent read of stale memory that still
// produces a plausible checksum. The check* validators panic with the
// offending argument by name, which is the contract the sweep engine and
// tests rely on.
package kernelargcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/blobvet"
)

// Analyzer is the kernelargcheck instance registered with blob-vet.
var Analyzer = &blobvet.Analyzer{
	Name: "kernelargcheck",
	Doc: "exported GEMM/GEMV kernels in internal/blas must call their check* " +
		"argument validator before indexing or slicing any operand",
	Run: run,
}

// pathScope limits the analyzer to the hand-rolled BLAS package (and to
// fixtures impersonating it).
const pathScope = "internal/blas"

func run(pass *blobvet.Pass) error {
	if !strings.HasSuffix(pass.Pkg.Path(), pathScope) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.TestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isKernelEntry(fn) {
				continue
			}
			checkKernel(pass, fn)
		}
	}
	return nil
}

// isKernelEntry reports whether fn is an exported GEMM or GEMV entry point
// (OptSgemm, RefDgemv, ...).
func isKernelEntry(fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	if !ast.IsExported(name) || fn.Recv != nil {
		return false
	}
	lower := strings.ToLower(name)
	return strings.Contains(lower, "gemm") || strings.Contains(lower, "gemv")
}

// checkKernel walks fn's body in source order and reports any slice/array
// indexing that precedes the first call to a check* validator.
func checkKernel(pass *blobvet.Pass, fn *ast.FuncDecl) {
	checkPos := token.NoPos
	var firstIndex ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && strings.HasPrefix(id.Name, "check") {
				if checkPos == token.NoPos {
					checkPos = n.Pos()
				}
			}
		case *ast.IndexExpr:
			if firstIndex == nil && indexable(pass, n.X) {
				firstIndex = n
			}
		case *ast.SliceExpr:
			if firstIndex == nil && indexable(pass, n.X) {
				firstIndex = n
			}
		}
		return true
	})
	switch {
	case checkPos == token.NoPos && firstIndex != nil:
		pass.Reportf(fn.Name.Pos(),
			"exported kernel %s indexes operands but never calls a check* argument validator",
			fn.Name.Name)
	case checkPos == token.NoPos:
		pass.Reportf(fn.Name.Pos(),
			"exported kernel %s has no check* argument validator call", fn.Name.Name)
	case firstIndex != nil && firstIndex.Pos() < checkPos:
		pass.Reportf(firstIndex.Pos(),
			"kernel %s indexes an operand before its check* validator runs", fn.Name.Name)
	}
}

// indexable reports whether expr is a kernel operand buffer: a slice or
// array whose elements are floating point (or a pointer to one, for the
// register-tile accumulators), including the []T of a generic kernel
// over float type parameters. Indexing other slices is not an operand
// access and does not need to wait for the validator.
func indexable(pass *blobvet.Pass, expr ast.Expr) bool {
	t := pass.Info.TypeOf(expr)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	default:
		return false
	}
	return blobvet.IsFloat(elem)
}
