package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak checks that every goroutine spawned in non-test code has a
// shutdown edge: some way for the rest of the program to make it return.
// The long-lived types in this codebase (iqstream.Hub, iqstream.ChaosProxy,
// obs.SnapshotWriter, the soak harness) all follow the same discipline — a
// worker loop selects on a quit/done channel that Close/Shutdown closes, or
// blocks on an operation that closing the underlying resource unblocks.
// This analyzer enforces that discipline over the whole program: the close()
// may live in a different package than the loop.
//
// For each `go` statement it resolves the goroutine body (function literal
// or statically-resolved callee) and walks the call graph a few levels deep.
// Every unbounded loop found there — `for {}` / `for` with no condition, or
// `range` over a channel — must contain at least one shutdown edge:
//
//   - a receive, range or select case on a channel that is close()d
//     somewhere in the program (including a channel passed in as an
//     argument whose caller-side variable is closed);
//   - a receive on ctx.Done() (any method named Done);
//   - a receive through a selector whose base value's type has a
//     Close/Shutdown/Stop method (time.Ticker's t.C);
//   - a call to a method on a value whose type has Close/Shutdown/Stop —
//     the "blocking on a closeable resource" escape hatch that covers
//     conn.Read loops and accept loops, where closing the resource is the
//     documented way to unblock the goroutine.
//
// Bounded loops (three-clause `for` with a condition) are exempt. Findings
// are reported at the loop with the spawn site in the message; suppress at
// the loop with //bhss:allow(goroleak) and the reason the goroutine's
// lifetime is actually bounded.
var GoroLeak = &Analyzer{
	Name:       "goroleak",
	RunProgram: runGoroLeak,
}

// goroleakDepth bounds the call-graph walk from a `go` statement. The
// codebase's deepest real chain (go h.handle → serveTx → enqueueTx) is three
// levels; anything deeper is out of the goroutine's own control.
const goroleakDepth = 5

func runGoroLeak(pass *ProgramPass) error {
	reported := map[token.Pos]bool{}
	for _, fi := range pass.Graph.Funcs {
		info := fi.Pkg.Info
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				checkGoroutine(pass, info, gs, reported)
			}
			return true
		})
	}
	return nil
}

// goBody is one function body the goroutine can execute, queued by the
// call-graph walk.
type goBody struct {
	body  *ast.BlockStmt
	info  *types.Info
	depth int
}

func checkGoroutine(pass *ProgramPass, info *types.Info, gs *ast.GoStmt, reported map[token.Pos]bool) {
	g := pass.Graph
	// localClosed extends the program-wide closed-channel index with
	// parameter aliases: for `go worker(jobs)` where the caller closes
	// jobs, worker's own parameter object is a closed channel too.
	localClosed := map[types.Object]bool{}
	seen := map[*types.Func]bool{}
	var work []goBody
	enqueue := func(callee *types.Func, call *ast.CallExpr, callerInfo *types.Info, depth int) {
		fi, ok := g.Funcs[callee]
		if !ok || seen[callee] || depth > goroleakDepth {
			return
		}
		seen[callee] = true
		if call != nil {
			params := signatureParams(callee)
			for i, arg := range call.Args {
				if i >= len(params) {
					break
				}
				obj := rootSelectableObject(callerInfo, arg)
				if obj != nil && isChanType(obj.Type()) && (g.ClosedChans[obj] || localClosed[obj]) {
					localClosed[params[i]] = true
				}
			}
		}
		work = append(work, goBody{fi.Decl.Body, fi.Pkg.Info, depth})
	}
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		work = append(work, goBody{lit.Body, info, 0})
	} else if callee := staticCallee(info, gs.Call); callee != nil {
		enqueue(callee, gs.Call, info, 0)
	}
	for i := 0; i < len(work); i++ {
		it := work[i]
		ast.Inspect(it.body, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				return false // a sub-goroutine is its own check
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := staticCallee(it.info, call); callee != nil {
					enqueue(callee, call, it.info, it.depth+1)
				}
			}
			return true
		})
		findSuspectLoops(pass, it.info, it.body, gs, localClosed, reported)
	}
}

func findSuspectLoops(pass *ProgramPass, info *types.Info, body *ast.BlockStmt, gs *ast.GoStmt, localClosed map[types.Object]bool, reported map[token.Pos]bool) {
	g := pass.Graph
	isClosed := func(e ast.Expr) bool {
		obj := rootSelectableObject(info, e)
		return obj != nil && (g.ClosedChans[obj] || localClosed[obj])
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		var loop ast.Node
		switch l := n.(type) {
		case *ast.ForStmt:
			if l.Cond != nil {
				return true // bounded by its condition
			}
			if isLocalRetryLoop(info, l) {
				return true // CAS-retry style: no channel ops, local exits
			}
			loop = l
		case *ast.RangeStmt:
			if !isChanType(info.TypeOf(l.X)) || isClosed(l.X) {
				return true // not a channel loop, or ends when the chan closes
			}
			loop = l
		default:
			return true
		}
		if reported[loop.Pos()] {
			return true
		}
		if !loopHasShutdownEdge(info, loop, isClosed) {
			reported[loop.Pos()] = true
			pass.Reportf(loop.Pos(),
				"goroutine spawned at %s loops forever with no shutdown edge: no receive on a channel the program closes, no ctx.Done, no call on a closeable resource; give it a quit path",
				shortPos(pass.Fset, gs.Pos()))
		}
		return true
	})
}

// isLocalRetryLoop reports whether a condition-less for loop performs no
// channel operation at all and contains a break or return: the CAS-retry
// shape (`for { if cas() { break } }`), terminated by local state that
// channel-shutdown analysis has no business judging. A loop with any
// channel op stays suspect — its exits are part of the shutdown contract.
func isLocalRetryLoop(info *types.Info, loop *ast.ForStmt) bool {
	hasChanOp := false
	hasLocalExit := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt, *ast.SelectStmt:
			hasChanOp = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				hasChanOp = true
			}
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(n.X)) {
				hasChanOp = true
			}
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				hasLocalExit = true
			}
		case *ast.ReturnStmt:
			hasLocalExit = true
		}
		return !hasChanOp
	})
	return !hasChanOp && hasLocalExit
}

// loopHasShutdownEdge scans one unbounded loop for any of the accepted
// shutdown edges.
func loopHasShutdownEdge(info *types.Info, loop ast.Node, isClosed func(ast.Expr) bool) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && receiveIsShutdownEdge(info, n.X, isClosed) {
				found = true
			}
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(n.X)) && isClosed(n.X) {
				found = true
			}
		case *ast.CallExpr:
			// A blocking call on a closeable resource: closing it is the
			// documented way to unblock the goroutine (net.Conn.Read,
			// Listener.Accept, Client.Recv, ...).
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if t := info.TypeOf(sel.X); t != nil && hasCloseMethod(t) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// receiveIsShutdownEdge reports whether `<-e` counts as a shutdown edge: a
// closed channel, ctx.Done(), or a channel field of a closeable value.
func receiveIsShutdownEdge(info *types.Info, e ast.Expr, isClosed func(ast.Expr) bool) bool {
	e = ast.Unparen(e)
	if isClosed(e) {
		return true
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true // <-ctx.Done() and equivalents
		}
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if t := info.TypeOf(sel.X); t != nil && hasCloseMethod(t) {
			return true // <-t.C where t is a *time.Ticker or similar
		}
	}
	return false
}

// signatureParams flattens a function's declared parameters to positional
// objects.
func signatureParams(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	params := make([]*types.Var, 0, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		params = append(params, sig.Params().At(i))
	}
	return params
}
