package lint_test

import (
	"slices"
	"testing"

	"bhss/internal/lint"
	"bhss/internal/lint/linttest"
)

// Each analyzer is exercised against a flagged fixture (every rule fires
// where a want comment says it should, and nowhere else) and a clean fixture
// (the sanctioned idioms stay silent). Fixtures live under testdata/src,
// which the go tool's ./... wildcard never descends into, so the
// deliberately-broken packages cannot leak into repo-wide builds.

// TestHotPathAlloc runs the hotpath analyzer over the fixtures of an
// annotated function's own body.
func TestHotPathAlloc(t *testing.T) {
	linttest.Run(t, lint.HotPath, "hotpathalloc/flagged", "hotpathalloc/clean")
}

func TestDetRand(t *testing.T) {
	linttest.Run(t, lint.DetRand, "detrand/flagged", "detrand/clean")
}

func TestFloatEq(t *testing.T) {
	linttest.Run(t, lint.FloatEq, "floateq/flagged", "floateq/clean")
}

func TestScratchAlias(t *testing.T) {
	linttest.Run(t, lint.ScratchAlias, "scratchalias/flagged", "scratchalias/clean")
}

func TestPanicPolicy(t *testing.T) {
	linttest.Run(t, lint.PanicPolicy, "panicpolicy/flagged", "panicpolicy/clean")
}

// TestHotPathFacts runs the hotpath analyzer over the fixtures of the
// transitive walk: chains through unannotated callees, across a package
// boundary, and redundant annotations.
func TestHotPathFacts(t *testing.T) {
	linttest.Run(t, lint.HotPath, "hotpathfacts/flagged", "hotpathfacts/clean")
}

func TestGoroLeak(t *testing.T) {
	linttest.Run(t, lint.GoroLeak, "goroleak/flagged", "goroleak/clean")
}

func TestChanDiscipline(t *testing.T) {
	linttest.Run(t, lint.ChanDiscipline, "chandiscipline/flagged", "chandiscipline/clean")
}

// TestAllowEdgeCases runs two analyzers at once over a fixture that
// exercises the //bhss:allow directive forms: multi-analyzer suppression on
// one line, allow-on-the-line-above, a reasonless directive (reported
// itself), and a directive naming an analyzer with no finding on the line.
func TestAllowEdgeCases(t *testing.T) {
	linttest.RunMulti(t, []*lint.Analyzer{lint.FloatEq, lint.DetRand}, "allow/cases")
}

func TestAllNamesUnique(t *testing.T) {
	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
	}
	want := []string{"hotpath", "detrand", "floateq", "scratchalias", "panicpolicy", "goroleak", "chandiscipline"}
	if !slices.Equal(names, want) {
		t.Fatalf("lint.All() = %v, want %v", names, want)
	}
}
