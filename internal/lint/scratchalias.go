package lint

import (
	"go/ast"
	"go/types"
)

// ScratchAlias polices the lifetime of reusable scratch buffers. Struct
// fields marked //bhss:scratch (the receiver's rxScratch slices, the
// transmitter chip buffer, overlap-save history) are overwritten on the next
// call, so any view of them that escapes the current call — returned,
// stored into another object or a global, sent on a channel, packed into a
// composite literal — silently goes stale.
//
// A scratch value is: a selector chain that passes through a marked field
// (r.scratch.raw), a slice of one (r.scratch.raw[:n]), or a single-level
// local alias of one (raw := r.scratch.raw). Flagged escapes:
//
//   - return statements whose result is scratch, unless the function is
//     annotated //bhss:scratchview (callers of those functions accept the
//     documented until-next-call lifetime);
//   - assignments of scratch into anything other than a local variable or
//     another scratch location (struct fields of other values, globals,
//     map/slice elements reached through non-scratch bases);
//   - scratch inside composite literals (the literal outlives the call as
//     soon as it is returned or stored — conservatively flagged at the
//     literal, except in //bhss:scratchview functions);
//   - channel sends of scratch.
//
// Passing scratch to a callee is allowed: a call finishes before the next
// overwrite, and the callee's own contract is checked at its declaration.
var ScratchAlias = &Analyzer{
	Name: "scratchalias",
	Run:  runScratchAlias,
}

func runScratchAlias(pass *Pass) error {
	scratchFields := collectScratchFields(pass)
	if len(scratchFields) == 0 {
		return nil
	}
	eachFuncDecl(pass.Files, func(fn *ast.FuncDecl) {
		view := funcHasDirective(fn, "scratchview")
		w := &scratchWalker{pass: pass, fields: scratchFields, aliases: map[types.Object]bool{}, view: view}
		// Pass 1: collect single-level local aliases (raw := r.scratch.raw).
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, rhs := range assign.Rhs {
				if !w.isScratchExpr(rhs) {
					continue
				}
				if id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident); ok {
					if obj := pass.Info.Defs[id]; obj != nil {
						w.aliases[obj] = true
					} else if obj := pass.Info.Uses[id]; obj != nil && isLocalVar(obj) {
						w.aliases[obj] = true
					}
				}
			}
			return true
		})
		// Pass 2: find escapes.
		ast.Inspect(fn.Body, w.visit)
	})
	return nil
}

// collectScratchFields gathers the types.Var for every //bhss:scratch field
// declared in this package.
func collectScratchFields(pass *Pass) map[types.Object]bool {
	fields := map[types.Object]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !fieldHasDirective(field, "scratch") {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						fields[obj] = true
					}
				}
			}
			return true
		})
	}
	return fields
}

type scratchWalker struct {
	pass    *Pass
	fields  map[types.Object]bool
	aliases map[types.Object]bool
	view    bool
}

// isScratchExpr reports whether e denotes (a view of) a scratch buffer.
func (w *scratchWalker) isScratchExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.pass.Info.Uses[e]
		return obj != nil && w.aliases[obj]
	case *ast.SelectorExpr:
		if sel, ok := w.pass.Info.Selections[e]; ok && w.fields[sel.Obj()] {
			return true
		}
		// r.scratch.raw: the chain passes through a scratch field higher up
		// (scratch itself marked) even when the leaf field is not.
		return w.isScratchExpr(e.X)
	case *ast.SliceExpr:
		return w.isScratchExpr(e.X)
	case *ast.IndexExpr:
		// scratch[i] of a slice-of-slices would still alias; element reads of
		// numeric scratch do not escape anything. Only treat as scratch when
		// the element itself has reference type.
		if !w.isScratchExpr(e.X) {
			return false
		}
		return isRefType(w.pass.Info.TypeOf(e))
	}
	return false
}

func (w *scratchWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		if w.view {
			return true
		}
		for _, res := range n.Results {
			if w.isScratchExpr(res) {
				w.pass.Reportf(res.Pos(), "returning a view of a //bhss:scratch buffer; it is overwritten on the next call (annotate //bhss:scratchview if intentional)")
			}
		}
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return true
		}
		for i, rhs := range n.Rhs {
			if !w.isScratchExpr(rhs) {
				continue
			}
			lhs := ast.Unparen(n.Lhs[i])
			if w.storeEscapes(lhs) {
				w.pass.Reportf(n.Pos(), "storing a view of a //bhss:scratch buffer outside the call (it goes stale on the next call)")
			}
		}
	case *ast.CompositeLit:
		if w.view {
			return true
		}
		for _, elt := range n.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if w.isScratchExpr(v) {
				w.pass.Reportf(v.Pos(), "scratch buffer captured in a composite literal may outlive the call")
			}
		}
	case *ast.SendStmt:
		if w.isScratchExpr(n.Value) {
			w.pass.Reportf(n.Value.Pos(), "sending a view of a //bhss:scratch buffer on a channel; the receiver races the next overwrite")
		}
	}
	return true
}

// storeEscapes reports whether assigning into lhs moves a value beyond the
// current call: anything that is not a local variable, the blank identifier,
// or a scratch location itself.
func (w *scratchWalker) storeEscapes(lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return false
		}
		if obj := w.pass.Info.Defs[lhs]; obj != nil {
			return false // fresh local
		}
		obj := w.pass.Info.Uses[lhs]
		if obj == nil {
			return false
		}
		return !isLocalVar(obj) // package-level var
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		// Writing into a field, element or pointee: fine only if the target
		// is itself scratch (scratch-to-scratch rotation, self-store of a
		// grown buffer).
		return !w.isScratchStoreTarget(lhs)
	}
	return true
}

// isScratchStoreTarget is like isScratchExpr but for lvalues: storing into
// a scratch field (or an element/subslice of one) keeps the value inside the
// scratch lifetime discipline.
func (w *scratchWalker) isScratchStoreTarget(lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if sel, ok := w.pass.Info.Selections[lhs]; ok && w.fields[sel.Obj()] {
			return true
		}
		return w.isScratchStoreTarget(lhs.X)
	case *ast.IndexExpr:
		return w.isScratchStoreTarget(lhs.X)
	case *ast.SliceExpr:
		return w.isScratchStoreTarget(lhs.X)
	case *ast.Ident:
		obj := w.pass.Info.Uses[lhs]
		return obj != nil && w.aliases[obj]
	}
	return false
}

// isLocalVar reports whether obj is a function-scoped variable.
func isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	// Package-level variables have the package scope as parent.
	return v.Parent() == nil || v.Parent() != v.Pkg().Scope()
}

// isRefType reports whether values of t alias underlying storage.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan:
		return true
	}
	return false
}
