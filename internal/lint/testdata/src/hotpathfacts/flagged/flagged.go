// Package flagged exercises the hotpath analyzer's transitive walk: the
// annotated entry points below allocate only through unannotated helpers —
// one of them across a package boundary — so a check of annotated bodies
// alone would pass all of them.
package flagged

import "bhss/internal/lint/testdata/src/hotpathfacts/flagged/sub"

var sink []float64

// Entry is the hot path; helper hides the allocation one level down,
// inside another package.
//
//bhss:hotpath
func Entry(dst []complex128) {
	helper(dst) // want "hot path escapes into allocating call"
}

func helper(dst []complex128) {
	sink = sub.Fill(dst)
}

// Outer covers inner, making inner's own annotation redundant.
//
//bhss:hotpath
func Outer(dst []complex128) {
	inner(dst)
}

// inner is reachable from Outer through no unannotated intermediary, so
// the transitive walk already enforces it.
//
//bhss:hotpath
func inner(dst []complex128) { // want "redundant //bhss:hotpath"
	for i := range dst {
		dst[i] = 0
	}
}
