// Package errcontract enforces the repository's error-classification
// contract: errors that cross a package boundary must stay classifiable.
//
// The resilience layer (ISSUE 4) retries a backend call only when
// resilience.IsTransient says the failure is transient, and IsTransient
// walks the error chain via errors.As looking for a Transienter. A bare
// fmt.Errorf("consult failed: %v", err) at any boundary flattens the
// chain to a string and silently turns every injected transient fault
// into a permanent one — the retry loop stops retrying, the breaker
// opens, and a chaos run diverges from its fault-free reference with no
// type error anywhere.
//
// The rule: inside a return statement of an exported function or method,
// constructing an error with fmt.Errorf without a %w verb, or with
// errors.New, severs the chain. Root-cause errors belong in package-level
// sentinels (var ErrX = errors.New(...)) so callers can errors.Is them;
// contextual errors must wrap their cause with %w. The rule holds for
// every package under internal/.
package errcontract

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis/blobvet"
)

// Analyzer is the errcontract instance registered with blob-vet.
var Analyzer = &blobvet.Analyzer{
	Name: "errcontract",
	Doc: "errors returned across package boundaries must wrap a cause (%w) " +
		"or be a named sentinel; bare fmt.Errorf/errors.New in exported " +
		"returns lose the fault class resilience.IsTransient depends on",
	Run: run,
}

func run(pass *blobvet.Pass) error {
	path := pass.Pkg.Path()
	if !strings.Contains(path, "internal/") {
		return nil
	}
	for _, file := range pass.Files {
		if pass.TestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *blobvet.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures are not the exported boundary
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			call, ok := res.(*ast.CallExpr)
			if !ok {
				continue
			}
			var msg string
			switch bareErrorCtor(pass, call) {
			case "fmt.Errorf":
				msg = "%s returns fmt.Errorf without %%w; wrap the cause (%%w) or return a package sentinel so resilience.IsTransient can classify it"
			case "errors.New":
				msg = "%s returns an inline errors.New; hoist it to a package-level sentinel (var Err...) so callers can errors.Is it"
			default:
				continue
			}
			pass.Reportf(call.Pos(), msg, fn.Name.Name)
		}
		return true
	})
}

// bareErrorCtor classifies call as a chain-severing error constructor:
// "fmt.Errorf" (no %w verb) or "errors.New", else "".
func bareErrorCtor(pass *blobvet.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	switch {
	case pkgName.Imported().Path() == "fmt" && sel.Sel.Name == "Errorf":
		if len(call.Args) == 0 {
			return ""
		}
		if format, ok := stringLit(call.Args[0]); ok && !strings.Contains(format, "%w") {
			return "fmt.Errorf"
		}
		return ""
	case pkgName.Imported().Path() == "errors" && sel.Sel.Name == "New":
		return "errors.New"
	}
	return ""
}

// stringLit returns the value of a string literal expression.
func stringLit(expr ast.Expr) (string, bool) {
	lit, ok := expr.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
