// Package linttest runs lint analyzers over golden-file fixtures, in the
// style of golang.org/x/tools/go/analysis/analysistest: fixture packages
// live under internal/lint/testdata/src/ (which the go tool's ./... wildcard
// never matches, so deliberately-broken fixtures cannot pollute repo-wide
// builds or lint runs), and expectations are written in the fixture source
// as comments of the form
//
//	total += v // want "accumulating into"
//
// Each `want` takes one or more double-quoted regular expressions that must
// each match a diagnostic reported on that line. Diagnostics with no
// matching expectation, and expectations with no matching diagnostic, both
// fail the test. A fixture with no want comments asserts the analyzer is
// silent on it (the "clean" fixture).
package linttest

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bhss/internal/lint"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one `// want "re"` clause.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads each fixture directory (relative to testdata/src in the calling
// test's working directory) and checks the analyzer's diagnostics against
// the fixtures' want comments. A fixture may be a package tree: every
// package under the directory is loaded (the whole-program analyzers need
// cross-package fixtures — a hot-path entry in one package reaching an
// allocation in another), and every .go file under the directory may carry
// expectations, _test.go files included.
func Run(t *testing.T, a *lint.Analyzer, fixtures ...string) {
	t.Helper()
	RunMulti(t, []*lint.Analyzer{a}, fixtures...)
}

// RunMulti is Run with several analyzers applied at once, for fixtures that
// exercise //bhss:allow directives naming more than one analyzer on a line.
func RunMulti(t *testing.T, analyzers []*lint.Analyzer, fixtures ...string) {
	t.Helper()
	for _, fixture := range fixtures {
		fixture := fixture
		t.Run(fixture, func(t *testing.T) {
			t.Helper()
			dir := filepath.Join("testdata", "src", fixture)
			abs, err := filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := lint.Load(abs, "./...")
			if err != nil {
				t.Fatalf("loading fixture %s: %v", fixture, err)
			}
			if len(pkgs) == 0 {
				t.Fatalf("fixture %s: loaded no packages", fixture)
			}
			diags, err := lint.RunAnalyzers(pkgs, analyzers)
			if err != nil {
				t.Fatal(err)
			}
			checkExpectations(t, collectWants(t, abs), diags)
		})
	}
}

func checkExpectations(t *testing.T, wants []*expectation, diags []lint.Diagnostic) {
	t.Helper()
	for _, d := range diags {
		if w := matchWant(wants, d); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected diagnostic: %v", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectWants parses every .go file under dir itself rather than reading
// the loaded packages, so a want in a file the loader skipped (a _test.go
// file, say) fails the test instead of going unchecked.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	var wants []*expectation
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				quoted := quotedRE.FindAllStringSubmatch(m[1], -1)
				if len(quoted) == 0 {
					t.Errorf("%s: want comment with no quoted pattern", pos)
					continue
				}
				for _, q := range quoted {
					pat, err := strconv.Unquote(`"` + q[1] + `"`)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", pos, q[1], err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading fixture expectations: %v", err)
	}
	return wants
}

func matchWant(wants []*expectation, d lint.Diagnostic) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			return w
		}
	}
	return nil
}
