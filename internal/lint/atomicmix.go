package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// AtomicMix enforces the first rule of sync/atomic: a memory location
// accessed atomically anywhere must be accessed atomically everywhere. The
// analyzer indexes every variable or struct field whose address is passed to
// a sync/atomic function (`atomic.AddInt64(&s.n, 1)`), then flags every
// other appearance of that object — a plain read, a plain write, or an
// address-taking that escapes the atomic API — as a data race in waiting.
//
// Typed atomics (atomic.Int64 and friends) cannot mix by construction and
// are the recommended fix; the codebase's own counters (obs.Counter and
// obs.Histogram) already use them, so any finding here is legacy-style usage
// leaking in. The object index is per package and instance-insensitive: the
// field object is shared by every instance of the struct, which is exactly
// the granularity the race detector's happens-before model cares about.
// Test files are exempt via SrcFiles (the experiment package's race
// reproductions mix on purpose).
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "a variable accessed through sync/atomic must never be accessed plainly",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	files := pass.SrcFiles()
	// Pass 1: index the objects used atomically and the identifiers that
	// appear inside sanctioned &x arguments.
	atomicObjs := map[types.Object]token.Position{}
	sanctioned := map[*ast.Ident]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					continue
				}
				obj := rootSelectableObject(pass.Info, u.X)
				if obj == nil {
					continue
				}
				if _, seen := atomicObjs[obj]; !seen {
					atomicObjs[obj] = pass.Fset.Position(call.Pos())
				}
				ast.Inspect(u, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						sanctioned[id] = true
					}
					return true
				})
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return nil
	}
	// Pass 2: any other use of an atomic object is a plain access. Note
	// that value arguments of the atomic calls themselves are NOT
	// sanctioned: atomic.StoreInt64(&s.n, s.n+1) reads s.n plainly.
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || sanctioned[id] {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				return true
			}
			if first, ok := atomicObjs[obj]; ok {
				// Base filename only: the full path would differ between
				// machines and poison the findings baseline.
				pass.Reportf(id.Pos(),
					"%s is accessed atomically (e.g. %s:%d) but plainly here: every access must go through sync/atomic, or migrate the field to a typed atomic",
					id.Name, filepath.Base(first.Filename), first.Line)
			}
			return true
		})
	}
	return nil
}
