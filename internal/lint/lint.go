// Package lint is a self-contained static-analysis suite that enforces the
// BHSS codebase's domain contracts: allocation-free hot paths, bit-exact
// deterministic simulation, epsilon-safe float comparisons, scratch-buffer
// lifetime discipline and a construction-time-only panic policy.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis — an
// Analyzer owns a Run function over a Pass carrying syntax and type
// information — but is built on the standard library alone (go/ast, go/types
// and `go list`), because this build environment vendors no external
// modules. cmd/bhsslint is the one driver: it loads the named packages and
// runs All over them.
//
// # Annotations
//
// Contracts are declared in source with //bhss: comment directives:
//
//	//bhss:hotpath    — function doc: body must perform no direct allocation
//	//bhss:planphase  — function doc: runs at construction/plan time only,
//	                    panics on invalid input are acceptable here
//	//bhss:scratchview— function doc: returned slices intentionally alias
//	                    receiver scratch with a documented lifetime
//	//bhss:scratch    — struct field: reusable scratch whose aliases must not
//	                    outlive a call (see the scratchalias analyzer)
//
// A finding that is intentional is accepted in place, and only in place,
// with
//
//	//bhss:allow(analyzer1,analyzer2) reason...
//
// on the flagged line or the line directly above it. The reason is free
// text but mandatory: a directive without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// An Analyzer describes one static check. Exactly one of Run (per-package)
// and RunProgram (whole-program, over the cross-package call graph) is set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow() directives.
	Name string
	// Run performs a per-package check, reporting findings through the Pass.
	Run func(*Pass) error
	// RunProgram performs a whole-program check over every loaded package
	// at once; see ProgramPass.
	RunProgram func(*ProgramPass) error
}

// A Pass connects one Analyzer run to one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// TestFiles holds the package's _test.go files parsed only as far as
	// their imports: detrand's math/rand ban is the one rule that reaches
	// into tests.
	TestFiles []*ast.File
	Path      string // import path
	Pkg       *types.Package
	Info      *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// shortPos renders a position as "file.go:12" with the directory stripped,
// for positions embedded in diagnostic messages (as opposed to the
// Diagnostic's own Pos): the message stays short and machine-independent.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// All returns the full analyzer suite in reporting order: the whole-program
// hot-path contract, the four per-package analyzers, then the two
// concurrency analyzers (goroleak whole-program, chandiscipline per package).
func All() []*Analyzer {
	return []*Analyzer{
		HotPath,
		DetRand,
		FloatEq,
		ScratchAlias,
		PanicPolicy,
		GoroLeak,
		ChanDiscipline,
	}
}

// RunAnalyzers applies the analyzers to every package, filters findings
// through the //bhss:allow suppression index, and returns them sorted by
// position. Per-package analyzers run on each package in turn; whole-program
// analyzers run once over all of them (see ProgramPass). Suppression
// directives without a reason are themselves reported (analyzer name
// "allow"): a finding silenced without a why does not survive review.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var perPkg, prog []*Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			prog = append(prog, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}
	var diags []Diagnostic
	allow := allowIndex{}
	for _, pkg := range pkgs {
		diags = append(diags, allow.add(pkg.Fset, slices.Concat(pkg.Files, pkg.TestFiles))...)
	}
	for _, pkg := range pkgs {
		pd, err := runOnPackage(pkg, allow, perPkg)
		if err != nil {
			return nil, err
		}
		diags = append(diags, pd...)
	}
	pd, err := runProgramAnalyzers(pkgs, prog, allow)
	if err != nil {
		return nil, err
	}
	diags = append(diags, pd...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

func runOnPackage(pkg *Package, allow allowIndex, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TestFiles: pkg.TestFiles,
			Path:      pkg.ImportPath,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			report: func(d Diagnostic) {
				if !allow.allows(d.Pos, d.Analyzer) {
					diags = append(diags, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.ImportPath, err)
		}
	}
	return diags, nil
}

// ---- //bhss: directive parsing ----

var allowRE = regexp.MustCompile(`//bhss:allow\(([^)]+)\)(.*)$`)

// wantClauseRE strips a linttest `// want "..."` expectation trailing a
// directive, so fixture scaffolding is never mistaken for a reason.
var wantClauseRE = regexp.MustCompile(`//\s*want\s+".*$`)

// allowIndex records, per file and line, which analyzers are suppressed.
// A directive suppresses findings on its own line and on the line directly
// below it (the standalone-comment-above-the-statement form).
type allowIndex map[string]map[int]map[string]bool

// add indexes every //bhss:allow directive in files and returns, as
// ready-made diagnostics, the directives that carry no reason text: the
// suppression still applies (so a missing reason never un-suppresses a
// vetted finding into CI noise), but is itself a finding.
func (idx allowIndex) add(fset *token.FileSet, files []*ast.File) []Diagnostic {
	var reasonless []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(wantClauseRE.ReplaceAllString(m[2], "")) == "" {
					reasonless = append(reasonless, Diagnostic{
						Analyzer: "allow",
						Pos:      pos,
						Message:  fmt.Sprintf("//bhss:allow(%s) without a reason: say why the finding is intentional", m[1]),
					})
				}
				lines := idx[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					idx[pos.Filename] = lines
				}
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if lines[line] == nil {
							lines[line] = map[string]bool{}
						}
						lines[line][name] = true
					}
				}
			}
		}
	}
	return reasonless
}

func (idx allowIndex) allows(pos token.Position, analyzer string) bool {
	return idx[pos.Filename][pos.Line][analyzer]
}

// funcHasDirective reports whether the function's doc comment carries the
// //bhss:<name> directive (as its own comment line, optionally followed by
// free text).
func funcHasDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	want := "//bhss:" + name
	for _, c := range fn.Doc.List {
		if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
			return true
		}
	}
	return false
}

// fieldHasDirective reports whether a struct field's doc or trailing comment
// carries //bhss:<name>.
func fieldHasDirective(field *ast.Field, name string) bool {
	want := "//bhss:" + name
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
				return true
			}
		}
	}
	return false
}

// eachFuncDecl invokes fn for every function declaration with a body.
func eachFuncDecl(files []*ast.File, fn func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
