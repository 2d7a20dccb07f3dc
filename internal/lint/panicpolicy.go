package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// PanicPolicy restricts panic to plan/construction-time code. The streaming
// paths — per-hop filtering, demodulation, the experiment grid — must return
// errors so a single malformed burst cannot take down a long sweep; panics
// are reserved for programmer errors caught at construction.
//
// A panic call is allowed when:
//
//   - the enclosing function's name starts with New or Must, or is init
//     (constructors and must-helpers panic by Go convention);
//   - the enclosing function is annotated //bhss:planphase (it runs at
//     plan/construction time even though its name says otherwise);
//   - the call site carries //bhss:allow(panicpolicy) with a reason (an
//     invariant the type system cannot express, e.g. a size mismatch that is
//     a caller bug by documented contract).
var PanicPolicy = &Analyzer{
	Name: "panicpolicy",
	Run:  runPanicPolicy,
}

func runPanicPolicy(pass *Pass) error {
	eachFuncDecl(pass.Files, func(fn *ast.FuncDecl) {
		name := fn.Name.Name
		if name == "init" || strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Must") {
			return
		}
		if funcHasDirective(fn, "planphase") {
			return
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if b, ok := pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
				return true
			}
			pass.Reportf(call.Pos(), "panic outside construction/plan-time code; return an error, or annotate the function //bhss:planphase / the site //bhss:allow(panicpolicy) with a reason")
			return true
		})
	})
	return nil
}
