// Package floatcompare bans == and != between floating-point values,
// repo-wide, with two deliberate exceptions that the BLAS contract itself
// depends on:
//
//   - comparison against an exact 0 or 1 constant. The paper's Beta=0
//     contract (§III-A, Table I) requires kernels to branch on beta == 0
//     and beta != 1 — these sentinel values are exact in IEEE-754 and the
//     branch is the documented behaviour of all five vendor libraries.
//   - x != x / x == x, the standard NaN probe.
//
// Everything else — comparing computed results to each other or to
// arbitrary constants — is how FP-equality bugs sneak into threshold
// detection: two timing curves that differ in the last ulp flip the
// "GPU keeps beating CPU" decision, and a test that demands bitwise
// equality of a re-associated parallel sum fails on any reordering.
// Code must use the tolerance helpers (matrix.MaxAbsDiff32/64,
// matrix.ChecksumsMatchTol, math.Abs(a-b) <= tol) instead, or carry a
// //blobvet:allow floatcompare directive with a justification.
package floatcompare

import (
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"strings"

	"repro/internal/analysis/blobvet"
)

// Analyzer is the floatcompare instance registered with blob-vet.
var Analyzer = &blobvet.Analyzer{
	Name: "floatcompare",
	Doc: "no ==/!= on float32/float64 except against exact 0/1 sentinels or " +
		"the x != x NaN probe; use the tolerance helpers",
	Run: run,
}

func run(pass *blobvet.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			cmp, ok := n.(*ast.BinaryExpr)
			if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
				return true
			}
			if !floatOperand(pass, cmp.X) && !floatOperand(pass, cmp.Y) {
				return true
			}
			if exactSentinel(pass, cmp.X) || exactSentinel(pass, cmp.Y) {
				return true
			}
			if nanProbe(pass, cmp) {
				return true
			}
			pass.Reportf(cmp.OpPos,
				"floating-point %s comparison; use a tolerance helper (matrix.MaxAbsDiff*, ChecksumsMatchTol, math.Abs(a-b) <= tol) or an exact 0/1 sentinel",
				cmp.Op)
			return true
		})
	}
	return nil
}

// floatOperand reports whether expr has (or defaults to) a float32/float64
// type, or the type of a float-only type parameter.
func floatOperand(pass *blobvet.Pass, expr ast.Expr) bool {
	t := pass.Info.TypeOf(expr)
	return t != nil && blobvet.IsFloat(t)
}

// exactSentinel reports whether expr is a compile-time constant whose value
// is exactly 0 or 1 — the two values the Beta=0 contract compares against.
func exactSentinel(pass *blobvet.Pass, expr ast.Expr) bool {
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Value == nil {
		return false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return false
	}
	return constant.Compare(v, token.EQL, constant.ToFloat(constant.MakeInt64(0))) ||
		constant.Compare(v, token.EQL, constant.ToFloat(constant.MakeInt64(1)))
}

// nanProbe reports whether cmp is the x != x (or x == x) NaN idiom: both
// sides print to the same source expression.
func nanProbe(pass *blobvet.Pass, cmp *ast.BinaryExpr) bool {
	return render(pass.Fset, cmp.X) == render(pass.Fset, cmp.Y)
}

func render(fset *token.FileSet, expr ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, expr); err != nil {
		return ""
	}
	return sb.String()
}
