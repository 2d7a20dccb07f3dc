package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
)

// DetRand enforces the repo's determinism contract: every random draw in the
// simulation flows through internal/prng's explicitly-seeded xoshiro256**
// source, so a (seed, config) pair reproduces every figure bit-exactly.
//
// Three rules:
//
//  1. Importing math/rand or math/rand/v2 is forbidden everywhere, _test.go
//     files included. The global top-level functions carry process-wide
//     mutable state seeded per-run, and even the seeded forms use a
//     different generator than the one the paper-reproduction experiments
//     are calibrated against.
//
//  2. Reading the wall clock (time.Now, time.Since, time.Until) is
//     forbidden: wall-clock values leak into seeds or measurements and break
//     replay. The legitimate readers — transport deadlines, timing
//     measurements, record timestamps — each carry a reasoned allow.
//
//  3. Ranging over a map while compound-accumulating (+=, -=, *=, /=) into a
//     numeric variable declared outside the loop is forbidden: map iteration
//     order is randomized, and float accumulation is order-sensitive, so the
//     same inputs can produce different sums on different runs. Collect
//     keys, sort, then accumulate (the figures_measured.go idiom).
//
// Rules 2 and 3 apply to the non-test files of every package except the
// lint tooling itself, which shells out to the go tool; its testdata
// fixtures are in scope, so the rules stay testable.
var DetRand = &Analyzer{
	Name: "detrand",
	Run:  runDetRand,
}

func runDetRand(pass *Pass) error {
	for _, f := range slices.Concat(pass.Files, pass.TestFiles) {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s is forbidden: use bhss/internal/prng with an explicit seed", path)
			}
		}
	}
	if pass.Path == "bhss/internal/lint" || pass.Path == "bhss/internal/lint/linttest" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := staticCallee(pass.Info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" {
					switch fn.Name() {
					case "Now", "Since", "Until":
						pass.Reportf(n.Pos(), "time.%s() reads the wall clock, which breaks deterministic replay; derive values from the experiment seed", fn.Name())
					}
				}
			case *ast.RangeStmt:
				checkMapRangeAccum(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkMapRangeAccum flags `for k := range m { total += ... }` where m is a
// map and total is numeric and declared outside the range body.
func checkMapRangeAccum(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	// Objects declared inside the range statement (including the loop
	// variables) don't count as outer accumulators.
	inside := map[types.Object]bool{}
	ast.Inspect(rng, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				inside[obj] = true
			}
		}
		return true
	})
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch assign.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range assign.Lhs {
			base := lhs
			// total += x, m2[k].sum += x, acc.sum += x — resolve to the root
			// identifier.
			for {
				switch e := ast.Unparen(base).(type) {
				case *ast.SelectorExpr:
					base = e.X
					continue
				case *ast.IndexExpr:
					base = e.X
					continue
				}
				break
			}
			id, ok := ast.Unparen(base).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.Uses[id]
			if obj == nil || inside[obj] {
				continue
			}
			if !isNumericLvalue(pass.Info.TypeOf(lhs)) {
				continue
			}
			pass.Reportf(assign.Pos(), "accumulating into %s while ranging over a map: iteration order is randomized, so the result is nondeterministic; collect keys and sort first", id.Name)
		}
		return true
	})
}

func isNumericLvalue(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsNumeric) != 0
}
