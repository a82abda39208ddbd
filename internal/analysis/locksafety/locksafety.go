// Package locksafety checks mutex discipline in the concurrency-heavy
// packages (internal/overload, internal/service, internal/parallel,
// internal/resilience): the admission controller, the serving layer's
// cache/singleflight/pool, the worker pool under the BLAS kernels, and
// the retry/breaker stack all guard shared state with sync.Mutex or
// sync.RWMutex, and a single held-too-long or never-released lock there
// stalls every request behind it — precisely the dispatch-path overhead
// the offload advisor exists to avoid.
//
// The analyzer works lexically, per function body (closures are analyzed
// as independent bodies), tracking which mutexes are held between a
// Lock()/RLock() call and the next matching Unlock()/RUnlock() — a
// deferred unlock holds to the end of the body. Three rules:
//
//  1. A function that calls mu.Lock() must contain a matching
//     mu.Unlock() (direct or deferred) somewhere in the same body.
//     Branch-complete path analysis is out of scope; a body with zero
//     unlocks is the leak this rule catches.
//
//  2. No double-lock: locking a mutex that is already held by the same
//     body is a guaranteed deadlock for sync.Mutex (and a
//     writer-starvation hazard for recursive RLock).
//
//  3. No blocking operation while a mutex is held: channel sends and
//     receives (unless inside a select with a default clause), select
//     statements without default, sync.WaitGroup.Wait / sync.Cond.Wait,
//     time.Sleep, and calls through caller-supplied function values
//     (func-typed struct fields or parameters — the callee is outside
//     this package's control and may block or re-enter the lock).
//     Values of the named type resilience.Clock are exempt: reading a
//     clock is non-blocking by contract. Calls to same-package functions
//     are inlined one level deep, so a helper that performs a blocking
//     operation is caught at the locked call site (the breaker's
//     OnStateChange-under-lock bug, found by this rule, hid exactly
//     there).
//
// All three rules apply to production files only; tests may serialize
// however they like.
package locksafety

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/blobvet"
)

// Analyzer is the locksafety instance registered with blob-vet.
var Analyzer = &blobvet.Analyzer{
	Name: "locksafety",
	Doc: "every Lock has an Unlock, no double-lock, no blocking operation " +
		"(chan op, Wait, Sleep, caller-supplied callback) while a mutex is held",
	Run: run,
}

// scopePaths are the package-path suffixes the analyzer applies to.
var scopePaths = []string{
	"internal/overload", "internal/parallel", "internal/resilience",
	"internal/service",
}

func run(pass *blobvet.Pass) error {
	if !inScope(pass.Pkg.Path(), scopePaths) {
		return nil
	}
	decls := packageFuncDecls(pass)
	for _, file := range pass.Files {
		if pass.TestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			for _, body := range bodies(fn.Body) {
				checkBody(pass, fn, body, decls)
			}
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

// packageFuncDecls indexes this package's function declarations by their
// types.Func object, for the one-level inlining of rule 3.
func packageFuncDecls(pass *blobvet.Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok {
				decls[obj] = fn
			}
		}
	}
	return decls
}

// bodies returns body plus the body of every function literal nested in
// it: each is checked as an independent lexical scope, because a
// closure's statements execute on some other goroutine or at some other
// time than its enclosing function's.
func bodies(body *ast.BlockStmt) []*ast.BlockStmt {
	out := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, bodies(lit.Body)...)
			return false
		}
		return true
	})
	return out
}

// event is one lock-relevant occurrence in source order.
type event struct {
	pos  token.Pos
	kind string // "lock", "unlock", "deferUnlock", "block"
	key  string // mutex key for lock events
	desc string // human description for blocking events
}

func checkBody(pass *blobvet.Pass, fn *ast.FuncDecl, body *ast.BlockStmt, decls map[*types.Func]*ast.FuncDecl) {
	events := collectEvents(pass, body, decls, true)

	// Rule 1: a Lock with no Unlock anywhere in the body.
	unlocked := map[string]bool{}
	for _, e := range events {
		if e.kind == "unlock" || e.kind == "deferUnlock" {
			unlocked[e.key] = true
		}
	}
	reportedLeak := map[string]bool{}
	for _, e := range events {
		if e.kind == "lock" && !unlocked[e.key] && !reportedLeak[e.key] {
			reportedLeak[e.key] = true
			pass.Reportf(e.pos,
				"%s locks %s but never unlocks it in this body; add an Unlock (or defer it)",
				fn.Name.Name, e.key)
		}
	}

	// Rules 2 and 3: simulate held state in source order. A lexical
	// unlock releases the lock even when it sits in one branch of a
	// conditional — an under-approximation that trades missed findings
	// for zero branch-merge false positives.
	held := map[string]token.Pos{}
	for _, e := range events {
		switch e.kind {
		case "lock":
			if _, ok := held[e.key]; ok {
				pass.Reportf(e.pos,
					"%s locks %s while already holding it; deadlock (sync mutexes are not reentrant)",
					fn.Name.Name, e.key)
				continue
			}
			held[e.key] = e.pos
		case "unlock":
			delete(held, e.key)
		case "deferUnlock":
			// Lock stays held to the end of the body; nothing to do.
		case "block":
			if len(held) == 0 {
				continue
			}
			// One report per site; pick the alphabetically first held
			// mutex so the message is deterministic.
			keys := make([]string, 0, len(held))
			for key := range held {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			pass.Reportf(e.pos,
				"%s while %s is held in %s; release the lock first (collect under lock, act after)",
				e.desc, keys[0], fn.Name.Name)
		}
	}
}

// collectEvents walks body in source order, recording lock transitions
// and blocking operations. Nested function literals are skipped (they are
// separate scopes); go statements are skipped entirely (the spawned work
// does not block the lock holder); deferred calls other than Unlock are
// skipped (they run after the body's own unlocks). When inline is true,
// calls to same-package functions are scanned one level deep for blocking
// operations.
func collectEvents(pass *blobvet.Pass, body *ast.BlockStmt, decls map[*types.Func]*ast.FuncDecl, inline bool) []event {
	var events []event
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				return false
			case *ast.DeferStmt:
				if key, op, ok := mutexOp(pass, n.Call); ok && (op == "Unlock" || op == "RUnlock") {
					events = append(events, event{pos: n.Pos(), kind: "deferUnlock", key: lockKey(key, op)})
				}
				return false
			case *ast.SelectStmt:
				hasDefault := false
				for _, clause := range n.Body.List {
					if comm, ok := clause.(*ast.CommClause); ok && comm.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					events = append(events, event{pos: n.Pos(), kind: "block", desc: "select without default"})
				}
				// Don't descend: comm clauses' chan ops are part of the
				// select; clause bodies run after it unblocks, but a
				// lock held across the select is already reported.
				for _, clause := range n.Body.List {
					if comm, ok := clause.(*ast.CommClause); ok {
						for _, stmt := range comm.Body {
							walk(stmt)
						}
					}
				}
				return false
			case *ast.SendStmt:
				events = append(events, event{pos: n.Pos(), kind: "block", desc: "channel send"})
				return true
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					events = append(events, event{pos: n.Pos(), kind: "block", desc: "channel receive"})
				}
				return true
			case *ast.CallExpr:
				if key, op, ok := mutexOp(pass, n); ok {
					switch op {
					case "Lock", "RLock":
						events = append(events, event{pos: n.Pos(), kind: "lock", key: lockKey(key, op)})
					case "Unlock", "RUnlock":
						events = append(events, event{pos: n.Pos(), kind: "unlock", key: lockKey(key, op)})
					}
					return true
				}
				if desc, ok := blockingCall(pass, n); ok {
					events = append(events, event{pos: n.Pos(), kind: "block", desc: desc})
					return true
				}
				if inline {
					if callee, ok := calleeDecl(pass, n, decls); ok {
						for _, e := range collectEvents(pass, callee.Body, decls, false) {
							if e.kind == "block" {
								events = append(events, event{pos: n.Pos(), kind: "block",
									desc: e.desc + " inside " + callee.Name.Name + " (called here)"})
							}
						}
					}
				}
				return true
			}
			return true
		})
	}
	walk(body)
	// ast.Inspect is pre-order, which matches source order for the events
	// we record (all are anchored at their node's Pos).
	return events
}

// mutexOp reports whether call is <expr>.Lock/Unlock/RLock/RUnlock on a
// sync.Mutex or sync.RWMutex, returning the receiver expression's lexical
// key.
func mutexOp(pass *blobvet.Pass, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	tv, found := pass.Info.Types[sel.X]
	if !found {
		return "", "", false
	}
	if !isMutexType(tv.Type) {
		return "", "", false
	}
	return exprString(pass.Fset, sel.X), sel.Sel.Name, true
}

func isMutexType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		// A named type embedding sync.Mutex promotes Lock/Unlock; treat
		// any type whose method set includes them via sync as opaque and
		// skip — the embedded-mutex idiom is rare in this repo.
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockKey distinguishes the read and write sides of an RWMutex: RLock
// pairs with RUnlock, Lock with Unlock.
func lockKey(key, op string) string {
	if strings.HasPrefix(op, "R") {
		return key + " (read)"
	}
	return key
}

// blockingCall classifies calls that block by contract: WaitGroup/Cond
// Wait, time.Sleep, and calls through caller-supplied function values.
func blockingCall(pass *blobvet.Pass, call *ast.CallExpr) (string, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// wg.Wait() / cond.Wait()
		if sel.Sel.Name == "Wait" {
			if tv, ok := pass.Info.Types[sel.X]; ok && isSyncWaiter(tv.Type) {
				return exprString(pass.Fset, sel.X) + ".Wait()", true
			}
		}
		// time.Sleep(...)
		if sel.Sel.Name == "Sleep" {
			if id, ok := sel.X.(*ast.Ident); ok {
				if pkgName, ok := pass.Info.Uses[id].(*types.PkgName); ok && pkgName.Imported().Path() == "time" {
					return "time.Sleep", true
				}
			}
		}
		// obj.field(...) where field is a caller-supplied func value.
		if isFuncValueField(pass, sel) {
			return "call through caller-supplied func value " + exprString(pass.Fset, sel), true
		}
	}
	// f(...) where f is a func-typed variable — a parameter or a local
	// holding a value the lock holder cannot bound.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj, ok := pass.Info.Uses[id].(*types.Var); ok && !obj.IsField() && isPlainFuncType(obj.Type()) {
			return "call through func value " + id.Name, true
		}
	}
	return "", false
}

func isSyncWaiter(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "WaitGroup" || obj.Name() == "Cond")
}

// isFuncValueField reports whether sel names a func-typed struct field —
// a value the caller injected, whose behaviour this package cannot bound.
// The named type resilience.Clock is exempt: a clock read is non-blocking
// by its documented contract.
func isFuncValueField(pass *blobvet.Pass, sel *ast.SelectorExpr) bool {
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return false
	}
	return isPlainFuncType(selection.Obj().Type())
}

// isPlainFuncType reports whether t is a func type that is not an
// exempted named type (resilience.Clock).
func isPlainFuncType(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Name() == "Clock" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/resilience") {
			return false
		}
	}
	_, isFunc := t.Underlying().(*types.Signature)
	return isFunc
}

// calleeDecl resolves a call to a same-package function or method
// declaration, for one-level inlining.
func calleeDecl(pass *blobvet.Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) (*ast.FuncDecl, bool) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	default:
		return nil, false
	}
	fnObj, ok := obj.(*types.Func)
	if !ok {
		return nil, false
	}
	decl, ok := decls[fnObj]
	return decl, ok
}

// exprString renders a receiver expression compactly for diagnostics and
// lock keys ("c.mu", "b.mu").
func exprString(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, e); err != nil {
		return "<expr>"
	}
	return sb.String()
}
