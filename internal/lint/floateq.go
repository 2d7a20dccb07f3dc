package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// FloatEq flags == and != between floating-point or complex operands.
// Exact float comparison is almost always a latent bug in DSP code — two
// mathematically equal pipelines differ in the last ulp — so equality tests
// belong in epsilon helpers.
//
// Deliberately not flagged:
//
//   - comparisons where either side is a compile-time constant (x == 0,
//     rotation != 1): sentinel and exact-zero checks are well-defined;
//   - the x != x NaN idiom;
//   - comparisons inside functions whose names mark them as approximate
//     comparison helpers (approx/eps/epsilon/close/near/within).
var FloatEq = &Analyzer{
	Name: "floateq",
	Run:  runFloatEq,
}

var epsilonHelperRE = regexp.MustCompile(`(?i)(approx|eps|epsilon|close|near|within)`)

func runFloatEq(pass *Pass) error {
	eachFuncDecl(pass.Files, func(fn *ast.FuncDecl) {
		if epsilonHelperRE.MatchString(fn.Name.Name) {
			return
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloatOrComplex(pass.Info.TypeOf(be.X)) || !isFloatOrComplex(pass.Info.TypeOf(be.Y)) {
				return true
			}
			// Constant on either side: exact sentinel comparison is fine.
			if isConstExpr(pass.Info, be.X) || isConstExpr(pass.Info, be.Y) {
				return true
			}
			// x != x is the NaN test.
			if exprString(pass.Fset, ast.Unparen(be.X)) == exprString(pass.Fset, ast.Unparen(be.Y)) {
				return true
			}
			pass.Reportf(be.Pos(), "floating-point %s comparison; use an epsilon helper (math.Abs(a-b) <= tol)", be.Op)
			return true
		})
	})
	return nil
}

func isFloatOrComplex(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
