package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ChanDiscipline enforces three channel-usage contracts the transport layer
// relies on:
//
//  1. close-by-sender: a channel that has senders must be closed from a
//     function that also sends on it. Closing from the receive side (or
//     from a third party) races every in-flight send into a panic. Signal
//     channels that are only ever closed (quit/done) have no senders and
//     are exempt.
//  2. no send-after-close: within one statement list, a send on a channel
//     after a close() of the same channel always panics.
//  3. no mutex held across a blocking channel op: a send, receive, range
//     or default-less select reached while a sync.Mutex/RWMutex is locked
//     stalls every other goroutine contending for the lock — the exact
//     deadlock shape the Hub's enqueueTx carefully unlocks around. A
//     select with a default is non-blocking and fine.
//
// Rules 2 and 3 use a linear source-order scan per function (deferred
// unlocks hold to the end of the function; a lock in a conditional branch
// counts until its unlock is seen), which can over-approximate on
// early-return branches — suppress such findings with
// //bhss:allow(chandiscipline) and the branch invariant as the reason.
var ChanDiscipline = &Analyzer{
	Name: "chandiscipline",
	Run:  runChanDiscipline,
}

func runChanDiscipline(pass *Pass) error {
	info := pass.Info
	// Rule 1 needs a package-wide view of who sends and who closes.
	senders := map[types.Object]map[*ast.FuncDecl]bool{}
	type closeSite struct {
		fn   *ast.FuncDecl
		pos  token.Pos
		name string
		obj  types.Object
	}
	var closes []closeSite

	eachFuncDecl(pass.Files, func(fn *ast.FuncDecl) {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				if obj := rootSelectableObject(info, n.Chan); obj != nil {
					if senders[obj] == nil {
						senders[obj] = map[*ast.FuncDecl]bool{}
					}
					senders[obj][fn] = true
				}
			case *ast.CallExpr:
				if isBuiltinCall(info, n, "close") && len(n.Args) == 1 {
					if obj := rootSelectableObject(info, n.Args[0]); obj != nil {
						closes = append(closes, closeSite{fn, n.Pos(), renderExpr(n.Args[0]), obj})
					}
				}
			}
			return true
		})
		checkSendAfterClose(pass, fn)
		checkMutexAcrossBlocking(pass, fn)
	})

	for _, c := range closes {
		if s := senders[c.obj]; len(s) > 0 && !s[c.fn] {
			pass.Reportf(c.pos,
				"%s is closed in %s but sent on elsewhere (%s): close channels from the sending side so no in-flight send can hit a closed channel",
				c.name, c.fn.Name.Name, someSenderName(s))
		}
	}
	return nil
}

func someSenderName(s map[*ast.FuncDecl]bool) string {
	names := make([]string, 0, len(s))
	for fn := range s {
		names = append(names, fn.Name.Name)
	}
	sort.Strings(names)
	return names[0]
}

// renderExpr prints a channel expression compactly for diagnostics.
func renderExpr(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return renderExpr(e.X) + "[...]"
	}
	return "channel"
}

// checkSendAfterClose flags a send that follows a close of the same channel
// within the same statement list — the one ordering the runtime always
// punishes.
func checkSendAfterClose(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		closedAt := map[types.Object]token.Pos{}
		for _, stmt := range block.List {
			switch s := stmt.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok && isBuiltinCall(info, call, "close") && len(call.Args) == 1 {
					if obj := rootSelectableObject(info, call.Args[0]); obj != nil {
						closedAt[obj] = call.Pos()
					}
				}
			case *ast.SendStmt:
				if obj := rootSelectableObject(info, s.Chan); obj != nil {
					if cpos, ok := closedAt[obj]; ok {
						pass.Reportf(s.Pos(),
							"send on %s after it was closed at %s: this always panics",
							renderExpr(s.Chan), shortPos(pass.Fset, cpos))
					}
				}
			}
		}
		return true
	})
}

// lockEvent is one entry in a function's linear lock/blocking-op timeline.
type lockEvent struct {
	pos  token.Pos
	kind int // +1 lock, -1 unlock, 0 blocking op
	obj  types.Object
	what string
}

// checkMutexAcrossBlocking runs the rule-3 linear scan over fn's body and
// each function literal inside it, as separate scopes.
func checkMutexAcrossBlocking(pass *Pass, fn *ast.FuncDecl) {
	scanLockScope(pass, fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			scanLockScope(pass, lit.Body)
		}
		return true
	})
}

func scanLockScope(pass *Pass, body *ast.BlockStmt) {
	info := pass.Info
	var events []lockEvent
	// Comm statements of select cases never block by themselves — the
	// select blocks (handled as one op) — so skip them individually.
	commRanges := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate scope, scanned on its own
		case *ast.DeferStmt:
			// A deferred Unlock releases at return: the lock stays held
			// for the rest of the scan, so record nothing.
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm == nil {
					hasDefault = true
				} else {
					commRanges[cc.Comm] = true
				}
			}
			if !hasDefault {
				events = append(events, lockEvent{pos: n.Pos(), kind: 0, what: "select without default"})
			}
		case *ast.SendStmt:
			if !commRanges[n] {
				events = append(events, lockEvent{pos: n.Pos(), kind: 0, what: "channel send"})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !insideComm(commRanges, n) {
				events = append(events, lockEvent{pos: n.Pos(), kind: 0, what: "channel receive"})
			}
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(n.X)) {
				events = append(events, lockEvent{pos: n.X.Pos(), kind: 0, what: "range over channel"})
			}
		case *ast.CallExpr:
			obj, dir := mutexOp(info, n)
			if obj != nil {
				events = append(events, lockEvent{pos: n.Pos(), kind: dir, obj: obj})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	held := map[types.Object]int{}
	heldSince := map[types.Object]token.Pos{}
	for _, ev := range events {
		switch ev.kind {
		case +1:
			if held[ev.obj] == 0 {
				heldSince[ev.obj] = ev.pos
			}
			held[ev.obj]++
		case -1:
			if held[ev.obj] > 0 {
				held[ev.obj]--
			}
		default:
			for obj, n := range held {
				if n > 0 {
					pass.Reportf(ev.pos,
						"%s while holding %s (locked at %s): unlock around blocking channel operations or they stall every contender",
						ev.what, obj.Name(), shortPos(pass.Fset, heldSince[obj]))
					break
				}
			}
		}
	}
}

// insideComm reports whether the receive expression is (part of) a select
// comm statement: `case v := <-ch:` wraps the UnaryExpr in an AssignStmt or
// ExprStmt that is the registered comm node.
func insideComm(comm map[ast.Node]bool, recv *ast.UnaryExpr) bool {
	for node := range comm {
		if node.Pos() <= recv.Pos() && recv.End() <= node.End() {
			return true
		}
	}
	return false
}

// mutexOp classifies a call as a mutex lock (+1) or unlock (-1) on the
// receiver's root object, or (nil, 0).
func mutexOp(info *types.Info, call *ast.CallExpr) (types.Object, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, 0
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, 0
	}
	obj := rootSelectableObject(info, sel.X)
	if obj == nil {
		return nil, 0
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return obj, +1
	case "Unlock", "RUnlock":
		return obj, -1
	}
	return nil, 0
}
