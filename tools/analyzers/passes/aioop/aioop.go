// Package aioop enforces asynchronous-I/O operation hygiene on the aio
// engine API:
//
//  1. Every aio.Submit*/SubmitDelete result must be Waited, stored, or
//     passed onward. A dropped *aio.Op is an in-flight operation nothing
//     can wait for — it slips past Drain's accounting exactly like the
//     leaked in-flight writes PR 1 fixed and the un-waited error-path
//     submissions PR 2 fixed.
//  2. Submissions must carry an explicit priority Class
//     (SubmitReadClass/SubmitWriteClass/SubmitDelete, and the
//     SubmitWriteThen/SubmitDeleteThen forms that name a completer), never the
//     classless SubmitRead/SubmitWrite wrappers: the multi-level
//     scheduler is only as good as the classes call sites declare.
//  3. A discarded Wait error (`_ = op.Wait()`) must be annotated with
//     //mlpvet:allow aioop <reason>, so deliberately-ignored errors are
//     documented decisions instead of accidents.
package aioop

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/datastates/mlpoffload/tools/analyzers/analysis"
	"github.com/datastates/mlpoffload/tools/analyzers/directive"
)

// Analyzer enforces aio submission and completion hygiene.
var Analyzer = &analysis.Analyzer{
	Name: "aioop",
	Doc: `require aio submissions to be waited/stored, classed, and Wait errors handled

A dropped *aio.Op leaks an in-flight operation past Drain accounting;
classless submissions bypass the priority scheduler; a silently
discarded Wait error hides I/O failures.`,
	Run: run,
}

// aioSuffix identifies the aio package (real tree and fixtures).
const aioSuffix = "internal/aio"

var classed = map[string]bool{"SubmitReadClass": true, "SubmitWriteClass": true, "SubmitWriteThen": true, "SubmitDelete": true, "SubmitDeleteThen": true, "SubmitReadVecClass": true}
var classless = map[string]bool{"SubmitRead": true, "SubmitWrite": true}
var waiters = map[string]bool{"Wait": true, "WaitCtx": true}

func run(pass *analysis.Pass) (any, error) {
	if strings.HasSuffix(pass.Pkg.Path(), aioSuffix) {
		return nil, nil
	}
	sheet := directive.Collect(pass.Fset, pass.Files, pass.Analyzer.Name)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := submitName(pass, call); ok {
					if !sheet.Allowed(call.Pos()) {
						pass.Reportf(call.Pos(), "result of %s dropped: the *aio.Op must be Waited, stored, or passed onward — a dropped op is an in-flight operation Drain cannot account for", name)
					}
				} else if name, ok := waitName(pass, call); ok {
					if !sheet.Allowed(call.Pos()) {
						pass.Reportf(call.Pos(), "%s error discarded: handle it or annotate with //mlpvet:allow aioop <reason>", name)
					}
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := submitName(pass, call); ok && isBlank(n.Lhs[0]) {
					if !sheet.Allowed(call.Pos()) {
						pass.Reportf(call.Pos(), "*aio.Op from %s assigned to _: the op must be Waited, stored, or passed onward", name)
					}
				}
				if name, ok := waitName(pass, call); ok && len(n.Lhs) == 1 && isBlank(n.Lhs[0]) {
					if !sheet.Allowed(call.Pos()) {
						pass.Reportf(call.Pos(), "%s error discarded: handle it or annotate with //mlpvet:allow aioop <reason>", name)
					}
				}
			case *ast.CallExpr:
				if name, ok := submitCallee(pass, n, classless); ok {
					if !sheet.Allowed(n.Pos()) {
						pass.Reportf(n.Pos(), "implicit-class submission %s: use %sClass with an explicit aio.Class so the priority scheduler sees the caller's intent", name, name)
					}
				}
			}
			return true
		})
	}
	sheet.Flush(pass)
	return nil, nil
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// aioMethod resolves call to a method of the aio package with the given
// receiver type name, returning the method name.
func aioMethod(pass *analysis.Pass, call *ast.CallExpr, recv string, names map[string]bool) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), aioSuffix) || !names[fn.Name()] {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != recv {
		return "", false
	}
	return fn.Name(), true
}

// submitName matches any Engine submission method (classed or not).
func submitName(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if name, ok := aioMethod(pass, call, "Engine", classed); ok {
		return name, true
	}
	return aioMethod(pass, call, "Engine", classless)
}

// submitCallee matches an Engine submission method restricted to names.
func submitCallee(pass *analysis.Pass, call *ast.CallExpr, names map[string]bool) (string, bool) {
	return aioMethod(pass, call, "Engine", names)
}

// waitName matches Op.Wait / Op.WaitCtx.
func waitName(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	return aioMethod(pass, call, "Op", waiters)
}
