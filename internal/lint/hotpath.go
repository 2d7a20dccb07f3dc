package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// HotPath enforces the zero-alloc hot-path contract over the whole
// program. A function annotated //bhss:hotpath — the steady-state DSP loops
// (SpreadAppend, ModulateAppend, PSDInto, FFT execution, overlap-save
// processing, the receiver's per-hop excision) — runs entirely out of
// caller-provided or cached buffers. This analyzer keeps that true at review
// time; the AllocsPerRun tests (internal/alloctest) keep it true at run time.
//
// Rules:
//
//   - The annotated body performs no direct allocation (see walkAllocs for
//     what counts and which idioms are vetted).
//   - No statically-resolved call chain from the annotated function through
//     unannotated callees, in any loaded package, reaches a direct
//     allocation. The first reachable site is reported at the outgoing call
//     with the full chain in the message. Annotated callees stop the walk:
//     both rules hold at their own declarations.
//   - An unexported, never-address-taken annotated function that another
//     annotated function already reaches through unannotated nodes is
//     flagged as redundant: the walk protects it, so the annotation is noise
//     to keep in sync. Exported functions are never flagged — their
//     annotation documents the API contract to external callers.
//
// Functions outside the loaded program (the standard library) are opaque.
// Calls into internal/obs are exempt by the contract the obs-defer idiom
// relies on: the recording API is alloc-free and covered by its own
// AllocsPerRun tests.
var HotPath = &Analyzer{
	Name:       "hotpath",
	RunProgram: runHotPath,
}

// allocChain is the memoized result of searching a function's transitive
// callees for a direct allocation: the chain of symbols leading to it and a
// description of the first allocation site found.
type allocChain struct {
	links []string
	site  string
}

type hotpathProp struct {
	pass *ProgramPass
	g    *CallGraph
	// memo caches the allocation search per function; the in-progress
	// sentinel (nil value present) breaks recursion cycles.
	memo map[*types.Func]*allocChain
}

func runHotPath(pass *ProgramPass) error {
	p := &hotpathProp{pass: pass, g: pass.Graph, memo: map[*types.Func]*allocChain{}}
	anchored := map[*types.Func]bool{}
	for fn, fi := range p.g.Funcs {
		if !fi.Hotpath {
			continue
		}
		for _, a := range fi.Allocs {
			pass.Reportf(a.Pos, "%s", a.What)
		}
		reported := map[*types.Func]bool{}
		for _, edge := range fi.Calls {
			if reported[edge.Callee] || edge.Callee == fn {
				continue
			}
			if chain := p.search(edge.Callee); chain != nil {
				reported[edge.Callee] = true
				anchored[fn] = true
				pass.Reportf(edge.Pos,
					"hot path escapes into allocating call: %s → %s (%s); fix or annotate the chain //bhss:hotpath, or hoist the allocation",
					shortSym(fn), strings.Join(chain.links, " → "), chain.site)
			}
		}
	}
	p.reportRedundant(anchored)
	return nil
}

// search looks for a direct allocation reachable from fn through
// unannotated functions, fn itself included. Annotated callees terminate
// the walk (their contract is enforced at their own declaration); functions
// outside the graph are opaque.
func (p *hotpathProp) search(fn *types.Func) *allocChain {
	if isObsFunc(fn) {
		return nil
	}
	if c, ok := p.memo[fn]; ok {
		return c // includes the in-progress nil sentinel for cycles
	}
	fi, ok := p.g.Funcs[fn]
	if !ok || fi.Hotpath {
		return nil
	}
	p.memo[fn] = nil
	var result *allocChain
	if len(fi.Allocs) > 0 {
		a := fi.Allocs[0]
		result = &allocChain{
			links: []string{shortSym(fn)},
			site:  a.What + " at " + shortPos(p.g.Fset, a.Pos),
		}
	} else {
		for _, edge := range fi.Calls {
			if sub := p.search(edge.Callee); sub != nil {
				result = &allocChain{
					links: append([]string{shortSym(fn)}, sub.links...),
					site:  sub.site,
				}
				break
			}
		}
	}
	p.memo[fn] = result
	return result
}

// reportRedundant flags unexported annotated functions whose bodies the
// transitive walk already covers from another annotated entry. Annotations
// that anchor chain findings (or their //bhss:allow suppressions) are
// load-bearing — deleting them would scatter the same diagnostics across
// every caller — so anchored entries are never called redundant.
func (p *hotpathProp) reportRedundant(anchored map[*types.Func]bool) {
	// covered = every callee reachable from an annotated function through
	// unannotated intermediate nodes. Reaching an annotated function marks
	// it covered but does not descend into it: its own edges are walked
	// from its own declaration.
	covered := map[*types.Func]bool{}
	visited := map[*types.Func]bool{}
	var walk func(fi *FuncInfo)
	walk = func(fi *FuncInfo) {
		for _, edge := range fi.Calls {
			callee := edge.Callee
			ci, inGraph := p.g.Funcs[callee]
			if !inGraph {
				continue
			}
			covered[callee] = true
			if ci.Hotpath || visited[callee] {
				continue
			}
			visited[callee] = true
			walk(ci)
		}
	}
	for _, fi := range p.g.Funcs {
		if fi.Hotpath {
			walk(fi)
		}
	}
	for fn, fi := range p.g.Funcs {
		if !fi.Hotpath || fn.Exported() || p.g.AddrTaken[fn] || anchored[fn] {
			continue
		}
		if covered[fn] {
			p.pass.Reportf(fi.Decl.Pos(),
				"redundant //bhss:hotpath on %s: already reachable from an annotated entry point, so the transitive walk enforces it; drop the annotation",
				shortSym(fn))
		}
	}
}

// shortSym renders a function symbol without the module-path noise:
// "core.(*Receiver).DecodeBurst" instead of the FullName.
func shortSym(fn *types.Func) string {
	// FullName forms: "pkg/path.Func" and "(pkg/path.Recv).Method".
	sym := fn.FullName()
	trim := func(s string) string {
		if i := strings.LastIndex(s, "/"); i >= 0 {
			return s[i+1:]
		}
		return s
	}
	if strings.HasPrefix(sym, "(") {
		if i := strings.Index(sym, ")"); i > 0 {
			return "(" + trim(sym[1:i]) + sym[i:]
		}
	}
	return trim(sym)
}

// isObsFunc reports whether fn belongs to the internal/obs recording API.
func isObsFunc(fn *types.Func) bool {
	return fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), obsPkgSuffix)
}

// walkAllocs returns every direct-allocation site in fn's body. The call
// graph records the sites of every function, so the hotpath analyzer
// reports an annotated function's own sites and finds the first site behind
// each unannotated callee from the same list. Flagged:
//
//   - make(...) and new(...)
//   - slice, map and &struct composite literals
//   - func literals (the closure header itself allocates; the literal's body
//     is not descended into)
//   - string concatenation and string<->[]byte conversions
//   - go and defer statements — except a defer of an internal/obs recording
//     call outside any loop: the obs package's recording API is alloc-free by
//     contract, and a defer that is not in a loop is open-coded by the
//     compiler (Go >= 1.14), so the instrumentation idiom
//     `defer met.RecordStage(stage, obs.Start())` costs no heap allocation
//   - append(...) growth, unless it follows the caller-amortized Append
//     contract: either a self-assignment x = append(x, ...) or appending to
//     a slice that is a parameter of the function (the dst-first
//     convention, where amortized growth is the caller's business)
func walkAllocs(fset *token.FileSet, info *types.Info, fn *ast.FuncDecl) []AllocSite {
	params := map[types.Object]bool{}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	// Record the source ranges of every loop in the body up front: a
	// defer that sits inside one is heap-allocated per iteration, so
	// even the sanctioned obs-recording defer is forbidden there.
	var loops []posRange
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, posRange{n.Pos(), n.End()})
		case *ast.FuncLit:
			return false // runs under its own contract
		}
		return true
	})
	w := &hotpathWalker{fset: fset, info: info, params: params, loops: loops}
	ast.Inspect(fn.Body, w.visit)
	return w.sites
}

type hotpathWalker struct {
	fset   *token.FileSet
	info   *types.Info
	params map[types.Object]bool
	loops  []posRange
	sites  []AllocSite
}

func (w *hotpathWalker) flag(pos token.Pos, what string) {
	w.sites = append(w.sites, AllocSite{Pos: pos, What: what})
}

// posRange is a half-open source span [pos, end).
type posRange struct {
	pos, end token.Pos
}

func (w *hotpathWalker) inLoop(pos token.Pos) bool {
	for _, l := range w.loops {
		if l.pos <= pos && pos < l.end {
			return true
		}
	}
	return false
}

func (w *hotpathWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		w.flag(n.Pos(), "func literal allocates a closure in hot path")
		return false // the literal's body runs under its own contract
	case *ast.GoStmt:
		w.flag(n.Pos(), "go statement allocates a goroutine in hot path")
	case *ast.DeferStmt:
		// Deferring an internal/obs recording call is the sanctioned
		// instrumentation idiom: the obs API is alloc-free by contract and
		// a defer outside any loop is open-coded (no heap allocation).
		// Inside a loop the compiler falls back to heap-allocated defer
		// records, one per iteration, so the exemption does not apply.
		if fn := staticCallee(w.info, n.Call); fn != nil && isObsFunc(fn) {
			if !w.inLoop(n.Pos()) {
				return true // still walk the call's arguments
			}
			w.flag(n.Pos(), "deferred obs call inside a loop in hot path (per-iteration defer records allocate; record explicitly instead)")
			return true
		}
		w.flag(n.Pos(), "defer in hot path (allocates and delays cleanup)")
	case *ast.CompositeLit:
		switch w.info.TypeOf(n).Underlying().(type) {
		case *types.Slice:
			w.flag(n.Pos(), "slice literal allocates in hot path")
		case *types.Map:
			w.flag(n.Pos(), "map literal allocates in hot path")
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				w.flag(n.Pos(), "&composite literal allocates in hot path")
				return false
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isStringType(w.info.TypeOf(n)) {
			w.flag(n.Pos(), "string concatenation allocates in hot path")
		}
	case *ast.AssignStmt:
		// Handled expression-by-expression below; but catch the vetted
		// append form here so visitCall can tell self-assign from growth.
		for i, rhs := range n.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinCall(w.info, call, "append") {
				var lhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					lhs = n.Lhs[i]
				}
				w.checkAppend(call, lhs)
				// Walk append's non-dst arguments for nested allocations.
				for _, arg := range call.Args[1:] {
					ast.Inspect(arg, w.visit)
				}
				return false
			}
		}
	case *ast.CallExpr:
		return w.visitCall(n)
	}
	return true
}

func (w *hotpathWalker) visitCall(call *ast.CallExpr) bool {
	switch {
	case isBuiltinCall(w.info, call, "make"):
		w.flag(call.Pos(), "make allocates in hot path")
	case isBuiltinCall(w.info, call, "new"):
		w.flag(call.Pos(), "new allocates in hot path")
	case isBuiltinCall(w.info, call, "append"):
		// An append reached here is not the x = append(x, ...) statement form
		// (that is intercepted at the AssignStmt); it is used as a bare value,
		// so the vetted-destination rule is all that can save it.
		w.checkAppend(call, nil)
	default:
		if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
			to := w.info.TypeOf(call)
			from := w.info.TypeOf(call.Args[0])
			if stringBytesConversion(from, to) {
				w.flag(call.Pos(), "string/[]byte conversion allocates in hot path")
			}
		}
	}
	return true
}

// checkAppend applies the caller-amortized Append contract. lhs is the
// assignment target when the append appears as stmt `lhs = append(dst, ...)`,
// nil otherwise.
func (w *hotpathWalker) checkAppend(call *ast.CallExpr, lhs ast.Expr) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	// Vetted form 1: self-assignment x = append(x, ...) — amortized growth
	// on a buffer the function owns or was handed; structural equality via
	// printed form.
	if lhs != nil && exprString(w.fset, ast.Unparen(lhs)) == exprString(w.fset, dst) {
		return
	}
	// Vetted form 2: appending to (a slice derived from) a function
	// parameter — the dst-first Append convention, growth amortized by the
	// caller.
	if base, ok := ast.Unparen(sliceBase(dst)).(*ast.Ident); ok {
		if obj := w.info.Uses[base]; obj != nil && w.params[obj] {
			return
		}
	}
	w.flag(call.Pos(), "append may grow and allocate in hot path (use the dst-param or x = append(x, ...) form)")
}

// sliceBase strips slice expressions: scratch[:0] -> scratch.
func sliceBase(e ast.Expr) ast.Expr {
	for {
		s, ok := ast.Unparen(e).(*ast.SliceExpr)
		if !ok {
			return e
		}
		e = s.X
	}
}

// obsPkgSuffix identifies the observability package whose recording API
// (Counter.Inc, Histogram.ObserveSince, Pipeline.RecordStage, ...) is
// covered by its own AllocsPerRun regression tests.
const obsPkgSuffix = "/internal/obs"

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

func stringBytesConversion(from, to types.Type) bool {
	return (isStringType(from) && isByteSlice(to)) || (isByteSlice(from) && isStringType(to))
}

// exprString renders an expression for structural comparison.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}
