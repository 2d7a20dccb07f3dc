package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the whole-program view the cross-package analyzers run
// on: a call graph over every function declared in the analyzed packages,
// annotated with per-function facts (hot-path directive, direct-allocation
// sites, static call edges) and two program-wide indexes (channels that are
// closed anywhere, for goroleak; functions whose value escapes, for
// hotpath). The graph spans every package named on the command line.

// CallEdge is one static call site: the callee, where the call appears, and
// the call expression itself (goroleak inspects arguments to follow a closed
// channel through a parameter).
type CallEdge struct {
	Callee *types.Func
	Pos    token.Pos
	Call   *ast.CallExpr
}

// AllocSite is one direct allocation inside a function body, as classified
// by walkAllocs (vetted Append forms and the obs-defer idiom are already
// exempted).
type AllocSite struct {
	Pos  token.Pos
	What string
}

// FuncInfo is everything the program analyzers know about one declared
// function.
type FuncInfo struct {
	Decl    *ast.FuncDecl
	Pkg     *Package
	Hotpath bool // carries the //bhss:hotpath directive
	Allocs  []AllocSite
	Calls   []CallEdge
}

// CallGraph is the whole-program fact base.
type CallGraph struct {
	Fset  *token.FileSet
	Funcs map[*types.Func]*FuncInfo
	// ClosedChans holds every channel-valued object (struct field or
	// variable) that appears as the argument of a close() call anywhere in
	// the program. goroleak treats a receive on one of these as a shutdown
	// edge.
	ClosedChans map[types.Object]bool
	// AddrTaken marks functions whose identifier is used outside a call
	// position — passed or stored as a value. Such functions have callers
	// the static edges cannot see, so hotpath never calls their
	// annotations redundant.
	AddrTaken map[*types.Func]bool
}

// buildCallGraph constructs the program fact base over pkgs.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Funcs:       map[*types.Func]*FuncInfo{},
		ClosedChans: map[types.Object]bool{},
		AddrTaken:   map[*types.Func]bool{},
	}
	for _, pkg := range pkgs {
		if g.Fset == nil {
			g.Fset = pkg.Fset
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fi := &FuncInfo{
					Decl:    fd,
					Pkg:     pkg,
					Hotpath: funcHasDirective(fd, "hotpath"),
					Allocs:  walkAllocs(pkg.Fset, pkg.Info, fd),
				}
				collectCallsAndCloses(pkg.Info, fd.Body, fi, g.ClosedChans)
				g.Funcs[obj] = fi
			}
		}
		markAddrTaken(pkg, g.AddrTaken)
	}
	return g
}

// markAddrTaken records every function whose identifier appears outside the
// Fun position of a call: stored in a variable, passed as an argument,
// registered as a callback. Those functions gain dynamic callers the static
// edges never see.
func markAddrTaken(pkg *Package, out map[*types.Func]bool) {
	for _, f := range pkg.Files {
		calleeIdents := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					calleeIdents[fun] = true
				case *ast.SelectorExpr:
					calleeIdents[fun.Sel] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || calleeIdents[id] {
				return true
			}
			if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
				out[fn] = true
			}
			return true
		})
	}
}

// collectCallsAndCloses records fi's static call edges and feeds the
// program-wide closed-channel index.
func collectCallsAndCloses(info *types.Info, body *ast.BlockStmt, fi *FuncInfo, closed map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltinCall(info, call, "close") && len(call.Args) == 1 {
			if obj := rootSelectableObject(info, call.Args[0]); obj != nil {
				closed[obj] = true
			}
			return true
		}
		if callee := staticCallee(info, call); callee != nil {
			fi.Calls = append(fi.Calls, CallEdge{Callee: callee, Pos: call.Pos(), Call: call})
		}
		return true
	})
}

// staticCallee resolves a call expression to the *types.Func it statically
// invokes: a package-level function, a method (value or pointer receiver),
// or a local function value is not resolvable and yields nil. Interface
// method calls resolve to the interface method object, which has no body in
// the graph — callers treat that as opaque.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// rootSelectableObject resolves an expression to the stable object the
// program analyzers key channel identity on: for `s.out` the field object,
// for a plain identifier its variable object, recursing through parens and
// index expressions (`shards[i].done` keys on the `done` field).
func rootSelectableObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	case *ast.IndexExpr:
		return rootSelectableObject(info, e.X)
	}
	return nil
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// hasCloseMethod reports whether t (or *t) has a method named Close,
// Shutdown or Stop — the shape goroleak accepts as "another goroutine can
// sever whatever this one blocks on".
func hasCloseMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, name := range [...]string{"Close", "Shutdown", "Stop"} {
		if m, _, _ := types.LookupFieldOrMethod(t, true, nil, name); m != nil {
			if _, ok := m.(*types.Func); ok {
				return true
			}
		}
	}
	return false
}
