package lint

import (
	"fmt"
	"go/token"
)

// A ProgramPass connects one whole-program analyzer run to the full set of
// loaded packages and the call graph built over them. Unlike Pass, which
// sees one package at a time, a ProgramPass sees every package named on the
// command line at once — this is what lets hotpath follow a call chain
// from a //bhss:hotpath entry point in internal/core into an allocating
// helper in internal/dsp, and goroleak match a goroutine's channel receive
// in one file against the close() in another.
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Graph    *CallGraph

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// runProgramAnalyzers builds the call graph once and applies every
// whole-program analyzer to it, filtering findings through the
// program-wide //bhss:allow index.
func runProgramAnalyzers(pkgs []*Package, analyzers []*Analyzer, allow allowIndex) ([]Diagnostic, error) {
	if len(analyzers) == 0 || len(pkgs) == 0 {
		return nil, nil
	}
	g := buildCallGraph(pkgs)
	fset := pkgs[0].Fset
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &ProgramPass{
			Analyzer: a,
			Fset:     fset,
			Pkgs:     pkgs,
			Graph:    g,
			report: func(d Diagnostic) {
				if !allow.allows(d.Pos, d.Analyzer) {
					diags = append(diags, d)
				}
			},
		}
		if err := a.RunProgram(pass); err != nil {
			return nil, fmt.Errorf("lint: %s: %v", a.Name, err)
		}
	}
	return diags, nil
}
